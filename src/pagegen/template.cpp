#include "pagegen/template.h"

#include <cassert>
#include <cstdio>

namespace nagano::pagegen {

const TemplateContext::Slot* TemplateContext::Find(std::string_view key) const {
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    if (it->key == key) return &*it;
  }
  return parent_ != nullptr ? parent_->Find(key) : nullptr;
}

TemplateContext& TemplateContext::Set(std::string_view key, std::string value) {
  slots_.push_back(Slot{std::string(key), std::move(value), {}, false});
  return *this;
}

TemplateContext& TemplateContext::Set(std::string_view key, int64_t value) {
  return Set(key, std::to_string(value));
}

TemplateContext& TemplateContext::SetList(std::string_view key,
                                          std::vector<TemplateContext> items) {
  slots_.push_back(Slot{std::string(key), {}, std::move(items), true});
  return *this;
}

const std::string* TemplateContext::GetString(std::string_view key) const {
  const Slot* s = Find(key);
  return s != nullptr && !s->is_list ? &s->str : nullptr;
}

const std::vector<TemplateContext>* TemplateContext::GetList(
    std::string_view key) const {
  const Slot* s = Find(key);
  return s != nullptr && s->is_list ? &s->list : nullptr;
}

void AppendHtmlEscaped(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      default: continue;
    }
    out.append(s.data() + run, i - run);
    out.append(entity);
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

class TemplateParser {
 public:
  explicit TemplateParser(std::string_view source) : src_(source) {}

  Result<std::vector<CompiledTemplate::Node>> Parse() {
    std::vector<CompiledTemplate::Node> roots;
    Status s = ParseNodes(roots, /*section=*/"");
    if (!s.ok()) return s;
    if (pos_ != src_.size()) {
      return InvalidArgumentError("unexpected {{/" + pending_close_ + "}}");
    }
    return roots;
  }

 private:
  using Node = CompiledTemplate::Node;
  using NodeType = CompiledTemplate::NodeType;

  // Parses until EOF or a {{/section}} matching `section`. On a section
  // close, leaves pos_ after the close tag.
  Status ParseNodes(std::vector<Node>& out, const std::string& section) {
    while (pos_ < src_.size()) {
      const size_t open = src_.find("{{", pos_);
      if (open == std::string_view::npos) {
        AppendText(out, src_.substr(pos_));
        pos_ = src_.size();
        break;
      }
      AppendText(out, src_.substr(pos_, open - pos_));

      // Triple mustache?
      bool raw = false;
      size_t tag_start = open + 2;
      std::string_view closer = "}}";
      if (tag_start < src_.size() && src_[tag_start] == '{') {
        raw = true;
        ++tag_start;
        closer = "}}}";
      }
      const size_t close = src_.find(closer, tag_start);
      if (close == std::string_view::npos) {
        return InvalidArgumentError("unterminated tag at offset " +
                                    std::to_string(open));
      }
      std::string_view tag = Trim(src_.substr(tag_start, close - tag_start));
      pos_ = close + closer.size();

      if (raw) {
        if (tag.empty()) return InvalidArgumentError("empty raw tag");
        out.push_back(Node{NodeType::kRawVariable, std::string(tag), {}});
        continue;
      }
      if (tag.empty()) return InvalidArgumentError("empty tag");

      switch (tag.front()) {
        case '!':
          break;  // comment
        case '>': {
          const std::string name(Trim(tag.substr(1)));
          if (name.empty()) return InvalidArgumentError("empty fragment name");
          out.push_back(Node{NodeType::kFragment, name, {}});
          break;
        }
        case '#':
        case '^': {
          const bool inverted = tag.front() == '^';
          const std::string name(Trim(tag.substr(1)));
          if (name.empty()) return InvalidArgumentError("empty section name");
          Node node{inverted ? NodeType::kInverted : NodeType::kSection, name, {}};
          Status s = ParseNodes(node.children, name);
          if (!s.ok()) return s;
          if (closed_section_ != name) {
            return InvalidArgumentError("section {{#" + name + "}} not closed");
          }
          closed_section_.clear();
          out.push_back(std::move(node));
          break;
        }
        case '/': {
          const std::string name(Trim(tag.substr(1)));
          if (section.empty() || name != section) {
            pending_close_ = name;
            // Rewind so the caller's caller sees the stray close.
            if (section.empty()) {
              return InvalidArgumentError("stray close tag {{/" + name + "}}");
            }
            return InvalidArgumentError("mismatched close tag {{/" + name +
                                        "}} inside {{#" + section + "}}");
          }
          closed_section_ = name;
          return Status::Ok();
        }
        default:
          out.push_back(Node{NodeType::kVariable, std::string(tag), {}});
      }
    }
    if (!section.empty()) {
      return InvalidArgumentError("section {{#" + section + "}} never closed");
    }
    return Status::Ok();
  }

  void AppendText(std::vector<Node>& out, std::string_view text) {
    if (text.empty()) return;
    if (!out.empty() && out.back().type == NodeType::kText) {
      out.back().text += text;
    } else {
      out.push_back(Node{NodeType::kText, std::string(text), {}});
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  std::string closed_section_;
  std::string pending_close_;
};

Result<CompiledTemplate> CompiledTemplate::Compile(std::string_view source) {
  TemplateParser parser(source);
  auto nodes = parser.Parse();
  if (!nodes.ok()) return nodes.status();
  CompiledTemplate t;
  t.roots_ = std::move(nodes).value();
  return t;
}

namespace {

const std::string* LookupString(
    const std::vector<const TemplateContext*>& scope, std::string_view key) {
  for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
    if (const std::string* s = (*it)->GetString(key)) return s;
  }
  return nullptr;
}

const std::vector<TemplateContext>* LookupList(
    const std::vector<const TemplateContext*>& scope, std::string_view key) {
  for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
    if (const auto* l = (*it)->GetList(key)) return l;
  }
  return nullptr;
}

}  // namespace

void CompiledTemplate::RenderNodes(
    const std::vector<Node>& nodes, std::vector<const TemplateContext*>& scope,
    const FragmentResolver& fragments, std::string& body,
    RenderOutput& out) const {
  for (const Node& node : nodes) {
    switch (node.type) {
      case NodeType::kText:
        body += node.text;
        break;
      case NodeType::kVariable:
        if (const std::string* v = LookupString(scope, node.text)) {
          AppendHtmlEscaped(body, *v);
        }
        break;
      case NodeType::kRawVariable:
        if (const std::string* v = LookupString(scope, node.text)) {
          body += *v;
        }
        break;
      case NodeType::kSection: {
        if (const auto* list = LookupList(scope, node.text)) {
          for (const TemplateContext& item : *list) {
            scope.push_back(&item);
            RenderNodes(node.children, scope, fragments, body, out);
            scope.pop_back();
          }
        }
        break;
      }
      case NodeType::kInverted: {
        const auto* list = LookupList(scope, node.text);
        if (list == nullptr || list->empty()) {
          RenderNodes(node.children, scope, fragments, body, out);
        }
        break;
      }
      case NodeType::kFragment: {
        out.fragments_used.push_back(node.text);
        if (fragments) {
          Result<std::string> fragment = fragments(node.text);
          if (fragment.ok()) {
            body += fragment.value();
            break;
          }
        }
        out.missing_fragments.push_back(node.text);
        body += "<!-- missing fragment: ";
        AppendHtmlEscaped(body, node.text);
        body += " -->";
        break;
      }
    }
  }
}

RenderOutput CompiledTemplate::Render(const TemplateContext& context,
                                      const FragmentResolver& fragments) const {
  // Render into a per-thread buffer that keeps its capacity from render to
  // render, then hand back an exact-size copy: appends stop reallocating
  // once the buffer has grown to the largest page, and a body the cache
  // stores carries no slack. A render nested inside this one (a fragment
  // resolved mid-render) finds the slot empty and grows its own buffer.
  static thread_local std::string scratch;
  std::string buffer = std::move(scratch);
  buffer.clear();
  RenderOutput out;
  std::vector<const TemplateContext*> scope{&context};
  RenderNodes(roots_, scope, fragments, buffer, out);
  out.body = std::string(buffer.data(), buffer.size());
  scratch = std::move(buffer);
  return out;
}

}  // namespace nagano::pagegen
