#include <gtest/gtest.h>

#include <string>

#include "pagegen/template.h"

namespace nagano::pagegen {
namespace {

std::string RenderStr(const char* source, const TemplateContext& ctx,
                      const FragmentResolver& fragments = nullptr) {
  auto t = CompiledTemplate::Compile(source);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.value().Render(ctx, fragments).body;
}

TEST(TemplateTest, PlainText) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("hello world", ctx), "hello world");
}

TEST(TemplateTest, VariableSubstitution) {
  TemplateContext ctx;
  ctx.Set("name", "Nagano");
  EXPECT_EQ(RenderStr("Games of {{name}}!", ctx), "Games of Nagano!");
}

TEST(TemplateTest, MissingVariableRendersEmpty) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("[{{ghost}}]", ctx), "[]");
}

TEST(TemplateTest, VariableIsHtmlEscaped) {
  TemplateContext ctx;
  ctx.Set("x", "<b>&\"</b>");
  EXPECT_EQ(RenderStr("{{x}}", ctx), "&lt;b&gt;&amp;&quot;&lt;/b&gt;");
}

TEST(TemplateTest, RawVariableNotEscaped) {
  TemplateContext ctx;
  ctx.Set("x", "<b>bold</b>");
  EXPECT_EQ(RenderStr("{{{x}}}", ctx), "<b>bold</b>");
}

TEST(TemplateTest, NumericSetters) {
  TemplateContext ctx;
  ctx.Set("i", int64_t(42));
  EXPECT_EQ(RenderStr("{{i}}", ctx), "42");
}

TEST(TemplateTest, WhitespaceInTagsTrimmed) {
  TemplateContext ctx;
  ctx.Set("x", "v");
  EXPECT_EQ(RenderStr("{{  x  }}", ctx), "v");
}

TEST(TemplateTest, CommentDropped) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("a{{! this is a comment }}b", ctx), "ab");
}

TEST(TemplateTest, SectionRepeatsPerItem) {
  TemplateContext ctx;
  std::vector<TemplateContext> items;
  for (int i = 1; i <= 3; ++i) {
    items.emplace_back().Set("n", int64_t(i));
  }
  ctx.SetList("items", std::move(items));
  EXPECT_EQ(RenderStr("{{#items}}<{{n}}>{{/items}}", ctx), "<1><2><3>");
}

TEST(TemplateTest, EmptySectionRendersNothing) {
  TemplateContext ctx;
  ctx.SetList("items", {});
  EXPECT_EQ(RenderStr("a{{#items}}X{{/items}}b", ctx), "ab");
}

TEST(TemplateTest, AbsentSectionRendersNothing) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("a{{#items}}X{{/items}}b", ctx), "ab");
}

TEST(TemplateTest, InvertedSectionOnEmpty) {
  TemplateContext ctx;
  ctx.SetList("items", {});
  EXPECT_EQ(RenderStr("{{^items}}none{{/items}}", ctx), "none");
}

TEST(TemplateTest, InvertedSectionSuppressedWhenPresent) {
  TemplateContext ctx;
  std::vector<TemplateContext> items(1);
  ctx.SetList("items", std::move(items));
  EXPECT_EQ(RenderStr("{{^items}}none{{/items}}", ctx), "");
}

TEST(TemplateTest, NestedSections) {
  TemplateContext ctx;
  std::vector<TemplateContext> outer;
  for (int i = 0; i < 2; ++i) {
    TemplateContext o;
    o.Set("tag", "g" + std::to_string(i));
    std::vector<TemplateContext> inner;
    for (int j = 0; j < 2; ++j) {
      inner.emplace_back().Set("v", int64_t(j));
    }
    o.SetList("inner", std::move(inner));
    outer.push_back(std::move(o));
  }
  ctx.SetList("outer", std::move(outer));
  EXPECT_EQ(RenderStr("{{#outer}}[{{tag}}:{{#inner}}{{v}}{{/inner}}]{{/outer}}",
                      ctx),
            "[g0:01][g1:01]");
}

TEST(TemplateTest, SectionScopeFallsBackToOuter) {
  TemplateContext ctx;
  ctx.Set("site", "Nagano");
  std::vector<TemplateContext> items(1);
  items[0].Set("n", int64_t(1));
  ctx.SetList("items", std::move(items));
  EXPECT_EQ(RenderStr("{{#items}}{{n}}@{{site}}{{/items}}", ctx), "1@Nagano");
}

TEST(TemplateTest, InnerShadowsOuter) {
  TemplateContext ctx;
  ctx.Set("x", "outer");
  std::vector<TemplateContext> items(1);
  items[0].Set("x", "inner");
  ctx.SetList("items", std::move(items));
  EXPECT_EQ(RenderStr("{{#items}}{{x}}{{/items}}", ctx), "inner");
}

TEST(TemplateTest, FragmentSplicedViaResolver) {
  TemplateContext ctx;
  auto resolver = [](std::string_view name) -> Result<std::string> {
    return "[" + std::string(name) + "]";
  };
  auto t = CompiledTemplate::Compile("a {{>frag:medals}} b");
  ASSERT_TRUE(t.ok());
  const auto out = t.value().Render(ctx, resolver);
  EXPECT_EQ(out.body, "a [frag:medals] b");
  ASSERT_EQ(out.fragments_used.size(), 1u);
  EXPECT_EQ(out.fragments_used[0], "frag:medals");
  EXPECT_TRUE(out.missing_fragments.empty());
}

TEST(TemplateTest, MissingFragmentPlaceholder) {
  TemplateContext ctx;
  auto resolver = [](std::string_view) -> Result<std::string> {
    return NotFoundError("no");
  };
  auto t = CompiledTemplate::Compile("{{>ghost}}");
  ASSERT_TRUE(t.ok());
  const auto out = t.value().Render(ctx, resolver);
  EXPECT_NE(out.body.find("missing fragment"), std::string::npos);
  ASSERT_EQ(out.missing_fragments.size(), 1u);
  EXPECT_EQ(out.missing_fragments[0], "ghost");
}

TEST(TemplateTest, FragmentWithoutResolverIsMissing) {
  TemplateContext ctx;
  auto t = CompiledTemplate::Compile("{{>x}}");
  ASSERT_TRUE(t.ok());
  const auto out = t.value().Render(ctx);
  EXPECT_EQ(out.missing_fragments.size(), 1u);
}

// --- malformed input ---------------------------------------------------------

TEST(TemplateTest, UnterminatedTagRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("hello {{name").ok());
}

TEST(TemplateTest, UnclosedSectionRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{#items}}x").ok());
}

TEST(TemplateTest, MismatchedCloseRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{#a}}x{{/b}}").ok());
}

TEST(TemplateTest, StrayCloseRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("x{{/a}}").ok());
}

TEST(TemplateTest, EmptyTagRejected) {
  EXPECT_FALSE(CompiledTemplate::Compile("{{}}").ok());
  EXPECT_FALSE(CompiledTemplate::Compile("{{#}}x{{/}}").ok());
  EXPECT_FALSE(CompiledTemplate::Compile("{{>}}").ok());
}

TEST(TemplateTest, CommentBetweenTextDropped) {
  TemplateContext ctx;
  EXPECT_EQ(RenderStr("a{{! c }}b", ctx), "ab");
}

// --- context ------------------------------------------------------------------

TEST(TemplateContextTest, SetOverwrites) {
  TemplateContext ctx;
  ctx.Set("k", "v1");
  ctx.Set("k", "v2");
  EXPECT_EQ(*ctx.GetString("k"), "v2");
}

TEST(TemplateContextTest, ListAndStringShapesDistinct) {
  TemplateContext ctx;
  ctx.Set("k", "v");
  EXPECT_NE(ctx.GetString("k"), nullptr);
  EXPECT_EQ(ctx.GetList("k"), nullptr);
  ctx.SetList("k", {});
  EXPECT_EQ(ctx.GetString("k"), nullptr);
  EXPECT_NE(ctx.GetList("k"), nullptr);
}

TEST(HtmlEscapeTest, EscapesAll) {
  const auto escape = [](std::string_view s) {
    std::string out = "[";  // appends after what is already there
    AppendHtmlEscaped(out, s);
    return out;
  };
  EXPECT_EQ(escape("a<b>&\"c"), "[a&lt;b&gt;&amp;&quot;c");
  EXPECT_EQ(escape("plain"), "[plain");
  EXPECT_EQ(escape(""), "[");
}

}  // namespace
}  // namespace nagano::pagegen
