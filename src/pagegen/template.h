// Compiled text templates for page rendering.
//
// The Olympic pages were "dynamically combined" from results, news, photos
// and hand-edited content (paper §3.1, Fig. 15): a page is a template whose
// holes are filled from database-derived context and whose larger blocks
// are shared *fragments* (medal table, event summary, latest-news box) that
// are themselves cacheable objects in the ODG.
//
// Syntax (mustache subset):
//   {{name}}        value substitution (HTML-escaped)
//   {{{name}}}      raw substitution
//   {{#list}}...{{/list}}   repeat body once per list item
//   {{^list}}...{{/list}}   render body only when list is absent/empty
//   {{>fragment}}   splice another object's rendered body; the engine
//                   reports every fragment used so the caller can record
//                   fragment -> page dependence edges
//   {{!comment}}    dropped
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace nagano::pagegen {

// Hierarchical render context: string scalars and lists of child contexts.
// Setting a key again replaces its value (and shape).
class TemplateContext {
 public:
  TemplateContext() = default;
  // Keys absent from this context resolve in `parent`: slots shared by
  // many renders (a page family's chrome strings) live there once. The
  // parent must outlive this context.
  explicit TemplateContext(const TemplateContext* parent) : parent_(parent) {}

  TemplateContext& Set(std::string_view key, std::string value);
  TemplateContext& Set(std::string_view key, int64_t value);
  // No double setter: refuse the silent conversion to int64_t.
  TemplateContext& Set(std::string_view key, double value) = delete;
  TemplateContext& SetList(std::string_view key,
                           std::vector<TemplateContext> items);

  // nullptr when absent or when the slot holds the other shape.
  const std::string* GetString(std::string_view key) const;
  const std::vector<TemplateContext>* GetList(std::string_view key) const;

 private:
  struct Slot {
    std::string key;
    std::string str;
    std::vector<TemplateContext> list;
    bool is_list = false;
  };
  // Set appends without searching; the latest slot for a key wins, so a
  // lookup scans from the back.
  const Slot* Find(std::string_view key) const;
  std::vector<Slot> slots_;
  const TemplateContext* parent_ = nullptr;
};

// Resolves {{>fragment}} to the fragment's current body. Returning an error
// renders an HTML comment placeholder and surfaces the error in
// RenderOutput::missing_fragments.
using FragmentResolver =
    std::function<Result<std::string>(std::string_view fragment_name)>;

struct RenderOutput {
  std::string body;
  std::vector<std::string> fragments_used;    // names seen in {{>...}}
  std::vector<std::string> missing_fragments; // resolver failures
};

class CompiledTemplate {
 public:
  // Parses `source`. Fails on unbalanced sections or malformed tags.
  static Result<CompiledTemplate> Compile(std::string_view source);

  RenderOutput Render(const TemplateContext& context,
                      const FragmentResolver& fragments = nullptr) const;

 private:
  friend class TemplateParser;

  enum class NodeType : uint8_t {
    kText,
    kVariable,     // escaped
    kRawVariable,
    kSection,      // children repeated per list item
    kInverted,     // children rendered when list empty/absent
    kFragment,
  };
  struct Node {
    NodeType type;
    std::string text;  // literal text, variable name, or fragment name
    std::vector<Node> children;
  };

  // Appends to `body`; `scope` is the context chain, innermost last, and is
  // restored to its entry state on return.
  void RenderNodes(const std::vector<Node>& nodes,
                   std::vector<const TemplateContext*>& scope,
                   const FragmentResolver& fragments, std::string& body,
                   RenderOutput& out) const;

  std::vector<Node> roots_;
};

// Appends `s` to `out` with &, <, >, " escaped.
void AppendHtmlEscaped(std::string& out, std::string_view s);

}  // namespace nagano::pagegen
