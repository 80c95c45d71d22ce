#include "pagegen/olympic.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>

namespace nagano::pagegen {
namespace {

using db::ChangeRecord;
using db::ColumnSpec;
using db::ColumnType;
using db::Database;
using db::Row;
using db::Value;

// Column indices, fixed by CreateSchema below.
namespace sports_col {
constexpr size_t kId = 0, kName = 1;
}
namespace events_col {
constexpr size_t kId = 0, kSportId = 1, kName = 2, kDay = 3, kVenue = 4,
                 kStatus = 5;
}
namespace athletes_col {
constexpr size_t kId = 0, kName = 1, kCountry = 2, kSportId = 3;
}
namespace countries_col {
constexpr size_t kCode = 0, kName = 1, kGolds = 2, kSilvers = 3, kBronzes = 4;
}
namespace results_col {
constexpr size_t kKey = 0, kEventId = 1, kRank = 2, kAthleteId = 3, kScore = 4;
}
namespace medals_col {
constexpr size_t kEventId = 0, kGold = 1, kSilver = 2, kBronze = 3;
}
namespace news_col {
constexpr size_t kId = 0, kDay = 1, kTitle = 2, kBody = 3, kSportId = 4;
}

constexpr const char* kSportNames[] = {
    "Alpine Skiing", "Biathlon",     "Cross-Country Skiing", "Curling",
    "Figure Skating", "Ice Hockey",  "Ski Jumping",          "Speed Skating",
    "Luge",           "Bobsleigh",   "Snowboarding",         "Freestyle Skiing",
};
constexpr const char* kVenueNames[] = {
    "White Ring", "M-Wave", "Big Hat", "Aqua Wing", "Hakuba", "Shiga Kogen",
    "Iizuna Kogen", "Karuizawa", "Nozawa Onsen", "Spiral",
};
constexpr const char* kCountryCodes[] = {
    "JPN", "USA", "GER", "NOR", "RUS", "CAN", "AUT", "KOR", "ITA", "FIN",
    "SUI", "FRA", "NED", "CHN", "SWE", "CZE", "GBR", "AUS", "UKR", "BLR",
    "KAZ", "BUL", "DEN", "POL", "ESP", "EST", "LAT", "SVK", "SLO", "HUN",
};

int64_t AsInt(const Value& v) { return std::get<int64_t>(v); }
double AsDouble(const Value& v) { return std::get<double>(v); }
const std::string& AsString(const Value& v) { return std::get<std::string>(v); }

std::optional<int64_t> ParseId(std::string_view page, std::string_view prefix) {
  if (!page.starts_with(prefix)) return std::nullopt;
  page.remove_prefix(prefix.size());
  int64_t id = 0;
  const auto [ptr, ec] = std::from_chars(page.data(), page.data() + page.size(), id);
  if (ec != std::errc{} || ptr != page.data() + page.size()) return std::nullopt;
  return id;
}

std::string ResultKey(int64_t event_id, int64_t rank) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "e%lld:r%lld", static_cast<long long>(event_id),
                static_cast<long long>(rank));
  return buf;
}

// --- language plumbing -------------------------------------------------------

// URL prefix: default language unprefixed, others "/<lang>".
std::string PagePrefix(std::string_view lang) {
  return lang == "en" ? std::string() : "/" + std::string(lang);
}
// Fragment namespace: "frag:" for the default, "frag:<lang>:" otherwise.
std::string FragPrefix(std::string_view lang) {
  return lang == "en" ? std::string("frag:")
                      : "frag:" + std::string(lang) + ":";
}

// Chrome strings per language — enough localization for the variants to be
// real, distinct documents (the 1998 site translated the full chrome).
struct Chrome {
  const char* day;
  const char* medal_standings;
  const char* todays_events;
  const char* latest_news;
  const char* no_events;
  const char* no_results;
  const char* schedule;
  const char* athletes;
  const char* results;
  const char* status;
};

const Chrome& ChromeFor(std::string_view lang) {
  static const Chrome kEnglish = {
      "Day",      "Medal standings", "Today's events", "Latest news",
      "No events scheduled today.", "No results yet.", "Schedule",
      "Athletes", "Results",         "Status"};
  static const Chrome kJapanese = {
      "第",        "メダル順位", "本日の競技", "最新ニュース",
      "本日の競技はありません。", "結果はまだありません。", "競技日程",
      "選手",      "結果",       "状況"};
  static const Chrome kFrench = {
      "Jour",     "Tableau des médailles", "Épreuves du jour",
      "Dernières nouvelles", "Pas d'épreuves aujourd'hui.",
      "Pas encore de résultats.", "Programme", "Athlètes", "Résultats",
      "Statut"};
  if (lang == "ja") return kJapanese;
  if (lang == "fr") return kFrench;
  return kEnglish;
}

// One language's chrome strings as a parent context, built once per page
// family: every render of the family resolves them there instead of
// copying them into its own context.
std::shared_ptr<const TemplateContext> ChromeContext(std::string_view lang) {
  const Chrome& c = ChromeFor(lang);
  auto ctx = std::make_shared<TemplateContext>();
  ctx->Set("lang", std::string(lang));
  ctx->Set("L_day", c.day);
  ctx->Set("L_medals", c.medal_standings);
  ctx->Set("L_today", c.todays_events);
  ctx->Set("L_news", c.latest_news);
  ctx->Set("L_noevents", c.no_events);
  ctx->Set("L_noresults", c.no_results);
  ctx->Set("L_schedule", c.schedule);
  ctx->Set("L_athletes", c.athletes);
  ctx->Set("L_results", c.results);
  ctx->Set("L_status", c.status);
  return ctx;
}

// Languages for full page families (every page) and news-only extras.
std::vector<std::string> FullLanguages(const OlympicConfig& config) {
  return config.languages.empty() ? std::vector<std::string>{"en"}
                                  : config.languages;
}

// Data-node names. Generators and the change mapper must agree on these;
// they are language-independent — every language variant of a page depends
// on the same underlying data, which is how one scoring change fans out
// across all translations (the paper's 128-page cross-country update).
std::string EventNode(int64_t id) { return "events:" + std::to_string(id); }
std::string EventDayNode(int64_t day) { return "events:day:" + std::to_string(day); }
std::string EventSportNode(int64_t sid) {
  return "events:sport:" + std::to_string(sid);
}
std::string SportNode(int64_t id) { return "sports:" + std::to_string(id); }
std::string ResultsEventNode(int64_t eid) {
  return "results:event:" + std::to_string(eid);
}
std::string ResultsAthleteNode(int64_t aid) {
  return "results:athlete:" + std::to_string(aid);
}
std::string AthleteNode(int64_t id) { return "athletes:" + std::to_string(id); }
std::string AthleteCountryNode(std::string_view cc) {
  return "athletes:country:" + std::string(cc);
}
std::string CountryNode(std::string_view cc) {
  return "countries:" + std::string(cc);
}
std::string MedalsEventNode(int64_t eid) {
  return "medals:event:" + std::to_string(eid);
}
std::string MedalsCountryNode(std::string_view cc) {
  return "medals:country:" + std::string(cc);
}
constexpr const char* kMedalsAllNode = "medals:*";
std::string EventVenueNode(std::string_view venue) {
  return "events:venue:" + std::string(venue);
}
std::string VenueNode(std::string_view venue) {
  return "venues:" + std::string(venue);
}
constexpr const char* kVenuesAllNode = "venues:*";
std::string PhotoSubjectNode(std::string_view kind, std::string_view subject) {
  return "photos:" + std::string(kind) + ":" + std::string(subject);
}

// "White Ring" -> "White_Ring" for URLs; reversible because venue names
// never contain underscores (unlike hyphens — see "M-Wave").
std::string VenueSlug(std::string_view name) {
  std::string slug(name);
  for (char& c : slug) {
    if (c == ' ') c = '_';
  }
  return slug;
}
std::string VenueUnslug(std::string_view slug) {
  std::string name(slug);
  for (char& c : name) {
    if (c == '_') c = ' ';
  }
  return name;
}
std::string NewsNode(int64_t id) { return "news:" + std::to_string(id); }
constexpr const char* kNewsLatestNode = "news:latest";
constexpr const char* kNewsAllNode = "news:*";

// Compile-once holder for the built-in templates; each generator owns one
// as a function-local static.
class TemplateHolder {
 public:
  explicit TemplateHolder(const char* source) {
    auto compiled = CompiledTemplate::Compile(source);
    assert(compiled.ok() && "builtin template must compile");
    tmpl_ = std::make_unique<CompiledTemplate>(std::move(compiled).value());
  }
  const CompiledTemplate& get() const { return *tmpl_; }

 private:
  std::unique_ptr<CompiledTemplate> tmpl_;
};

// --- templates -------------------------------------------------------------

const char* const kWelcomeTmpl = R"(<html lang="{{lang}}"><head><title>Nagano 1998</title></head>
<body><h1>The XVIII Olympic Winter Games</h1>
<ul>{{#days}}<li><a href="{{p}}/day/{{day}}">{{L_day}} {{day}}</a></li>{{/days}}</ul>
<p><a href="{{p}}/medals">{{L_medals}}</a> | <a href="{{p}}/news">{{L_news}}</a></p>
</body></html>
)";

const char* const kDayHomeTmpl = R"(<html lang="{{lang}}"><head><title>{{L_day}} {{day}} - Nagano 1998</title></head>
<body><h1>{{L_day}} {{day}}</h1>
<h2>{{L_medals}}</h2>
{{{medal_table}}}
<h2>{{L_today}}</h2>
{{#events}}<div class="event">{{{summary}}}</div>
{{/events}}
{{^events}}<p>{{L_noevents}}</p>{{/events}}
<h2>{{L_news}}</h2>
{{{latest_news}}}
</body></html>
)";

const char* const kEventFragmentTmpl =
    R"(<div class="event-summary"><h3><a href="{{p}}/event/{{event_id}}">{{event_name}}</a></h3>
<p>{{L_status}}: {{status}} @ {{venue}}</p>
<ol>{{#top}}<li>{{athlete}} ({{country}}) - {{score}}</li>{{/top}}</ol>
{{^top}}<p>{{L_noresults}}</p>{{/top}}
{{{photos}}}</div>
)";

const char* const kEventPageTmpl = R"(<html lang="{{lang}}"><head><title>{{event_name}}</title></head>
<body><h1>{{event_name}}</h1>
<p>{{sport_name}} | {{L_day}} {{day}} | {{venue}} | {{L_status}}: {{status}}</p>
<table><tr><th>#</th><th>{{L_athletes}}</th><th></th><th>{{L_results}}</th></tr>
{{#results}}<tr><td>{{rank}}</td><td><a href="{{p}}/athlete/{{athlete_id}}">{{athlete}}</a></td><td><a href="{{p}}/country/{{country}}">{{country}}</a></td><td>{{score}}</td></tr>
{{/results}}</table>
{{^results}}<p>{{L_noresults}}</p>{{/results}}
{{#has_medals}}<p>Gold: {{gold}} Silver: {{silver}} Bronze: {{bronze}}</p>{{/has_medals}}
{{{photos}}}
</body></html>
)";

const char* const kSportPageTmpl = R"(<html lang="{{lang}}"><head><title>{{sport_name}}</title></head>
<body><h1>{{sport_name}}</h1>
{{#events}}<div>{{{summary}}}</div>
{{/events}}
</body></html>
)";

const char* const kMedalsFragmentTmpl =
    R"(<table class="medals"><tr><th></th><th>G</th><th>S</th><th>B</th><th>=</th></tr>
{{#rows}}<tr><td><a href="{{p}}/country/{{code}}">{{name}}</a></td><td>{{g}}</td><td>{{s}}</td><td>{{b}}</td><td>{{total}}</td></tr>
{{/rows}}</table>
)";

const char* const kMedalsPageTmpl = R"(<html lang="{{lang}}"><head><title>{{L_medals}}</title></head>
<body><h1>{{L_medals}}</h1>
{{{medal_table}}}
</body></html>
)";

const char* const kNewsFragmentTmpl =
    R"(<ul class="news">{{#articles}}<li><a href="{{p}}/news/{{id}}">{{title}}</a> ({{L_day}} {{day}})</li>{{/articles}}</ul>
)";

const char* const kNewsIndexTmpl = R"(<html lang="{{lang}}"><head><title>{{L_news}}</title></head>
<body><h1>{{L_news}}</h1>
<ul>{{#articles}}<li><a href="{{p}}/news/{{id}}">{{title}}</a> ({{L_day}} {{day}})</li>
{{/articles}}</ul>
</body></html>
)";

const char* const kNewsPageTmpl = R"(<html lang="{{lang}}"><head><title>{{title}}</title></head>
<body><h1>{{title}}</h1><p class="meta">{{L_day}} {{day}}</p>
<div>{{body}}</div>
{{{latest_news}}}
</body></html>
)";

const char* const kAthletePageTmpl = R"(<html lang="{{lang}}"><head><title>{{name}}</title></head>
<body><h1>{{name}}</h1>
<p><a href="{{p}}/country/{{country}}">{{country}}</a> | {{sport_name}}</p>
<h2>{{L_results}}</h2>
<ul>{{#results}}<li><a href="{{p}}/event/{{event_id}}">{{event_name}}</a>: #{{rank}}, {{score}}</li>
{{/results}}</ul>
{{^results}}<p>{{L_noresults}}</p>{{/results}}
{{{photos}}}
</body></html>
)";

const char* const kCountryPageTmpl = R"(<html lang="{{lang}}"><head><title>{{name}}</title></head>
<body><h1>{{name}} ({{code}})</h1>
<p>G:{{g}} S:{{s}} B:{{b}}</p>
<h2>{{L_athletes}}</h2>
<ul>{{#athletes}}<li><a href="{{p}}/athlete/{{id}}">{{athlete}}</a></li>
{{/athletes}}</ul>
{{{photos}}}
<h2>{{L_news}}</h2>
{{{latest_news}}}
</body></html>
)";

const char* const kSchedulePageTmpl = R"(<html lang="{{lang}}"><head><title>{{L_schedule}} {{L_day}} {{day}}</title></head>
<body><h1>{{L_schedule}} - {{L_day}} {{day}}</h1>
<ul>{{#events}}<li><a href="{{p}}/event/{{id}}">{{event_name}}</a> @ {{venue}} ({{status}})</li>
{{/events}}</ul>
</body></html>
)";

const char* const kVenuePageTmpl = R"(<html lang="{{lang}}"><head><title>{{venue}}</title></head>
<body><h1>{{venue}}</h1>
<p>{{locality}} — capacity {{capacity}}</p>
<h2>{{L_schedule}}</h2>
<ul>{{#events}}<li>{{L_day}} {{day}}: <a href="{{p}}/event/{{id}}">{{event_name}}</a> ({{status}})</li>
{{/events}}</ul>
{{^events}}<p>{{L_noevents}}</p>{{/events}}
{{{photos}}}
</body></html>
)";

const char* const kNaganoPageTmpl = R"(<html lang="{{lang}}"><head><title>Nagano</title></head>
<body><h1>Nagano, Japan</h1>
<p>Host of the XVIII Olympic Winter Games, 7-22 February 1998.</p>
<h2>{{L_schedule}}</h2>
<ul>{{#venues}}<li><a href="{{p}}/venue/{{slug}}">{{venue}}</a> — {{locality}}</li>
{{/venues}}</ul>
</body></html>
)";

const char* const kFunPageTmpl = R"(<html lang="{{lang}}"><head><title>Fun</title></head>
<body><h1>Fun &amp; Games</h1>
<p>Sports activities for children: match the mascot, guess the medal
count, and colouring pages for all {{sports}} sports.</p>
</body></html>
)";

// --- content helpers --------------------------------------------------------

struct EventInfo {
  int64_t id, sport_id, day;
  std::string name, venue, status;
};

const db::RowFilter kAllRows = db::RowFilter::All();

std::optional<EventInfo> LoadEvent(const Database& db, int64_t event_id) {
  std::optional<EventInfo> event;
  db.Read("events", db::RowFilter::Key(Value(event_id)), [&](const Row& r) {
    event = EventInfo{AsInt(r[events_col::kId]),
                      AsInt(r[events_col::kSportId]),
                      AsInt(r[events_col::kDay]),
                      AsString(r[events_col::kName]),
                      AsString(r[events_col::kVenue]),
                      AsString(r[events_col::kStatus])};
  });
  return event;
}

// The fields of one results row the pages show.
struct ResultInfo {
  int64_t event_id, rank, athlete_id;
  double score;
};

// Results whose `column` (event_id or athlete_id) equals `id`, in
// primary-key order.
std::vector<ResultInfo> LoadResults(const Database& db, std::string_view column,
                                    int64_t id) {
  std::vector<ResultInfo> results;
  db.Read("results", db::RowFilter::Equals(column, Value(id)),
          [&](const Row& r) {
            results.push_back(ResultInfo{AsInt(r[results_col::kEventId]),
                                         AsInt(r[results_col::kRank]),
                                         AsInt(r[results_col::kAthleteId]),
                                         AsDouble(r[results_col::kScore])});
          });
  return results;
}

std::vector<ResultInfo> ResultsForEvent(const Database& db, int64_t event_id) {
  auto results = LoadResults(db, "event_id", event_id);
  std::sort(results.begin(), results.end(),
            [](const ResultInfo& a, const ResultInfo& b) {
              return a.rank < b.rank;
            });
  return results;
}

struct AthleteInfo {
  std::string name = "(unknown)";
  std::string country = "???";
};

AthleteInfo LoadAthlete(const Database& db, int64_t athlete_id) {
  AthleteInfo athlete;
  db.Read("athletes", db::RowFilter::Key(Value(athlete_id)), [&](const Row& r) {
    athlete.name = AsString(r[athletes_col::kName]);
    athlete.country = AsString(r[athletes_col::kCountry]);
  });
  return athlete;
}

std::string SportName(const Database& db, int64_t sport_id) {
  std::string name = "(unknown sport)";
  db.Read("sports", db::RowFilter::Key(Value(sport_id)),
          [&](const Row& r) { name = AsString(r[sports_col::kName]); });
  return name;
}

struct NewsItem {
  int64_t id, day;
  std::string title;
};

// The newest `limit` articles, newest first.
std::vector<NewsItem> LatestNews(const Database& db, size_t limit) {
  std::vector<NewsItem> items;
  db.Read("news", kAllRows, [&](const Row& r) {
    items.push_back(NewsItem{AsInt(r[news_col::kId]), AsInt(r[news_col::kDay]),
                             AsString(r[news_col::kTitle])});
  });
  std::sort(items.begin(), items.end(),
            [](const NewsItem& a, const NewsItem& b) { return a.id > b.id; });
  if (items.size() > limit) items.resize(limit);
  return items;
}

void SetArticles(TemplateContext& ctx, const std::vector<NewsItem>& news) {
  std::vector<TemplateContext> articles;
  articles.reserve(news.size());
  for (const NewsItem& n : news) {
    articles.emplace_back()
        .Set("id", n.id)
        .Set("title", n.title)
        .Set("day", n.day);
  }
  ctx.SetList("articles", std::move(articles));
}

std::string FormatScore(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", score);
  return buf;
}

// Photos for (kind, subject), as an HTML strip; records the dependence on
// the subject's photo node whether or not photos exist yet, so the first
// classified photo propagates into already-cached pages.
std::string PhotoStrip(const Database& db, DependencyRecorder& deps,
                       std::string_view kind, std::string_view subject) {
  deps.DependsOnData(PhotoSubjectNode(kind, subject));
  std::string strip;
  db.Read("photos",
          db::RowFilter::Equals("subject_id", Value(std::string(subject))),
          [&](const Row& r) {
            if (AsString(r[2]) != kind) return;
            strip += "<figure><img src=\"/img/";
            strip += std::to_string(AsInt(r[0]));
            strip += ".jpg\"/><figcaption>";
            AppendHtmlEscaped(strip, AsString(r[1]));
            strip += "</figcaption></figure>\n";
          });
  return strip;
}

}  // namespace

// --- schema & population -----------------------------------------------------

namespace {

Row NewsRow(int64_t article_id, int day, std::string_view title,
            std::string_view body, int64_t sport_id) {
  return Row{Value(article_id), Value(int64_t(day)), Value(std::string(title)),
             Value(std::string(body)), Value(sport_id)};
}

}  // namespace

Status OlympicSite::CreateSchema(Database* db) {
  assert(db != nullptr);
  Status s;
  s = db->CreateTable("sports", {{"sport_id", ColumnType::kInt},
                                 {"name", ColumnType::kString}});
  if (!s.ok()) return s;
  s = db->CreateTable("events",
                      {{"event_id", ColumnType::kInt},
                       {"sport_id", ColumnType::kInt},
                       {"name", ColumnType::kString},
                       {"day", ColumnType::kInt},
                       {"venue", ColumnType::kString},
                       {"status", ColumnType::kString}});
  if (!s.ok()) return s;
  s = db->CreateTable("athletes", {{"athlete_id", ColumnType::kInt},
                                   {"name", ColumnType::kString},
                                   {"country", ColumnType::kString},
                                   {"sport_id", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("countries", {{"code", ColumnType::kString},
                                    {"name", ColumnType::kString},
                                    {"golds", ColumnType::kInt},
                                    {"silvers", ColumnType::kInt},
                                    {"bronzes", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("results", {{"result_key", ColumnType::kString},
                                  {"event_id", ColumnType::kInt},
                                  {"rank", ColumnType::kInt},
                                  {"athlete_id", ColumnType::kInt},
                                  {"score", ColumnType::kDouble}});
  if (!s.ok()) return s;
  s = db->CreateTable("medals", {{"event_id", ColumnType::kInt},
                                 {"gold", ColumnType::kInt},
                                 {"silver", ColumnType::kInt},
                                 {"bronze", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("news", {{"article_id", ColumnType::kInt},
                               {"day", ColumnType::kInt},
                               {"title", ColumnType::kString},
                               {"body", ColumnType::kString},
                               {"sport_id", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("venues", {{"name", ColumnType::kString},
                                 {"locality", ColumnType::kString},
                                 {"capacity", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("photos", {{"photo_id", ColumnType::kInt},
                                 {"caption", ColumnType::kString},
                                 {"subject_kind", ColumnType::kString},
                                 {"subject_id", ColumnType::kString},
                                 {"day", ColumnType::kInt}});
  if (!s.ok()) return s;

  // Secondary indexes for the page generators' hot lookups.
  const std::pair<const char*, const char*> kIndexes[] = {
      {"events", "day"},        {"events", "sport_id"}, {"events", "venue"},
      {"results", "event_id"},  {"results", "athlete_id"},
      {"athletes", "sport_id"}, {"athletes", "country"},
      {"photos", "subject_id"},
  };
  for (const auto& [table, column] : kIndexes) {
    s = db->CreateIndex(table, column);
    if (!s.ok()) return s;
  }
  return s;
}

Status OlympicSite::Build(const OlympicConfig& config, Database* db) {
  Status s = CreateSchema(db);
  if (!s.ok()) return s;

  // The seed rows commit as one batch: one WAL frame per shard, not one
  // fsynced commit per row.
  Rng rng(config.seed);
  db::WriteBatch batch;

  const int num_sports =
      std::min<int>(config.num_sports, std::size(kSportNames));
  for (int i = 0; i < num_sports; ++i) {
    batch.Upsert("sports", Row{Value(int64_t(i + 1)),
                                 Value(std::string(kSportNames[i]))});
  }

  for (size_t v = 0; v < std::size(kVenueNames); ++v) {
    batch.Upsert("venues",
                 Row{Value(std::string(kVenueNames[v])),
                     Value(std::string(v < 4 ? "Nagano City" : "Nagano Prefecture")),
                     Value(int64_t(5000 + 1500 * (v % 5)))});
  }

  const int num_countries =
      std::min<int>(config.num_countries, std::size(kCountryCodes));
  for (int i = 0; i < num_countries; ++i) {
    const std::string code = kCountryCodes[i];
    batch.Upsert("countries",
                 Row{Value(code), Value("Team " + code), Value(int64_t(0)),
                     Value(int64_t(0)), Value(int64_t(0))});
  }

  // Events: spread each sport's events evenly across the days.
  int64_t event_id = 0;
  for (int sp = 1; sp <= num_sports; ++sp) {
    for (int k = 0; k < config.events_per_sport; ++k) {
      ++event_id;
      const int day = 1 + (k * config.days) / config.events_per_sport;
      const char* gender = (k % 2 == 0) ? "Men's" : "Women's";
      const std::string name = std::string(gender) + " " + kSportNames[sp - 1] +
                               " #" + std::to_string(k / 2 + 1);
      const std::string venue =
          kVenueNames[rng.NextBelow(std::size(kVenueNames))];
      batch.Upsert("events",
                   Row{Value(event_id), Value(int64_t(sp)), Value(name),
                       Value(int64_t(day)), Value(venue),
                       Value(std::string("scheduled"))});
    }
  }

  // Athletes: a pool per sport, countries assigned round-robin with noise.
  int64_t athlete_id = 0;
  const int per_sport = config.athletes_per_event * 2;
  for (int sp = 1; sp <= num_sports; ++sp) {
    for (int k = 0; k < per_sport; ++k) {
      ++athlete_id;
      const std::string cc =
          kCountryCodes[(k + rng.NextBelow(3)) % num_countries];
      const std::string name =
          cc + " " + kSportNames[sp - 1][0] + std::to_string(athlete_id);
      batch.Upsert("athletes", Row{Value(athlete_id), Value(name), Value(cc),
                                   Value(int64_t(sp))});
    }
  }

  for (int i = 1; i <= config.initial_news_articles; ++i) {
    const int day = 1 + (i - 1) % config.days;
    batch.Upsert("news", NewsRow(i, day, "Preview article " + std::to_string(i),
                                 "Ahead of the games: story number " +
                                     std::to_string(i) + ".",
                                 1 + (i % num_sports)));
  }
  return db->Commit(std::move(batch));
}

// --- page names ---------------------------------------------------------------

std::string OlympicSite::DayHomePage(int day, std::string_view lang) {
  return PagePrefix(lang) + "/day/" + std::to_string(day);
}
std::string OlympicSite::SportPage(int64_t sport_id, std::string_view lang) {
  return PagePrefix(lang) + "/sport/" + std::to_string(sport_id);
}
std::string OlympicSite::EventPage(int64_t event_id, std::string_view lang) {
  return PagePrefix(lang) + "/event/" + std::to_string(event_id);
}
std::string OlympicSite::AthletePage(int64_t athlete_id, std::string_view lang) {
  return PagePrefix(lang) + "/athlete/" + std::to_string(athlete_id);
}
std::string OlympicSite::CountryPage(std::string_view code,
                                     std::string_view lang) {
  return PagePrefix(lang) + "/country/" + std::string(code);
}
std::string OlympicSite::NewsPage(int64_t article_id, std::string_view lang) {
  return PagePrefix(lang) + "/news/" + std::to_string(article_id);
}
std::string OlympicSite::EventFragment(int64_t event_id, std::string_view lang) {
  return FragPrefix(lang) + "event:" + std::to_string(event_id);
}
std::string OlympicSite::MedalsPage(std::string_view lang) {
  return PagePrefix(lang) + "/medals";
}
std::string OlympicSite::NewsIndexPage(std::string_view lang) {
  return PagePrefix(lang) + "/news";
}
std::string OlympicSite::VenuePage(std::string_view venue_name,
                                   std::string_view lang) {
  return PagePrefix(lang) + "/venue/" + VenueSlug(venue_name);
}
std::string OlympicSite::NaganoPage(std::string_view lang) {
  return PagePrefix(lang) + "/nagano";
}
std::string OlympicSite::FunPage(std::string_view lang) {
  return PagePrefix(lang) + "/fun";
}
std::string OlympicSite::MedalsFragment(std::string_view lang) {
  return FragPrefix(lang) + "medals";
}
std::string OlympicSite::LatestNewsFragment(std::string_view lang) {
  return FragPrefix(lang) + "news:latest";
}

// --- generators ----------------------------------------------------------------

void OlympicSite::RegisterGenerators(const OlympicConfig& config, Database* db,
                                     PageRenderer* renderer) {
  assert(db != nullptr && renderer != nullptr);

  // Registers the news family (index, articles, latest-news fragment) for
  // `lang` — shared between full languages and the French news-only tier.
  auto register_news = [db, renderer](const std::string& lang) {
    const auto chrome = ChromeContext(lang);
    renderer->RegisterExact(
        LatestNewsFragment(lang),
        [db, lang, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsFragmentTmpl);
          req.deps.DependsOnData(kNewsLatestNode);
          TemplateContext ctx(chrome.get());
          ctx.Set("p", PagePrefix(lang));
          SetArticles(ctx, LatestNews(*db, 5));
          return tmpl.get().Render(ctx).body;
        });

    renderer->RegisterExact(
        NewsIndexPage(lang),
        [db, lang, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsIndexTmpl);
          req.deps.DependsOnData(kNewsAllNode);
          TemplateContext ctx(chrome.get());
          ctx.Set("p", PagePrefix(lang));
          SetArticles(ctx, LatestNews(*db, SIZE_MAX));
          return tmpl.get().Render(ctx).body;
        });

    const std::string news_prefix = PagePrefix(lang) + "/news/";
    renderer->RegisterPrefix(
        news_prefix,
        [db, lang, chrome,
         news_prefix](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsPageTmpl);
          const auto id = ParseId(req.page, news_prefix);
          if (!id) return InvalidArgumentError("bad article id");
          TemplateContext ctx(chrome.get());
          const size_t found = db->Read(
              "news", db::RowFilter::Key(Value(*id)), [&](const Row& r) {
                ctx.Set("title", AsString(r[news_col::kTitle]))
                    .Set("day", AsInt(r[news_col::kDay]))
                    .Set("body", AsString(r[news_col::kBody]));
              });
          if (found == 0) {
            return NotFoundError("no article " + std::to_string(*id));
          }
          req.deps.DependsOnData(NewsNode(*id));
          auto latest = req.fragments(LatestNewsFragment(lang));
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.get().Render(ctx).body;
        });
  };

  for (const std::string& lang : FullLanguages(config)) {
    const std::string p = PagePrefix(lang);
    const auto chrome = ChromeContext(lang);

    // "/" (or "/<lang>/") — welcome page listing the days.
    renderer->RegisterExact(
        p + "/",
        [config, lang, chrome, p](const RenderRequest&) -> Result<std::string> {
          static const TemplateHolder tmpl(kWelcomeTmpl);
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p);
          std::vector<TemplateContext> days;
          for (int d = 1; d <= config.days; ++d) {
            days.emplace_back().Set("day", int64_t(d));
          }
          ctx.SetList("days", std::move(days));
          return tmpl.get().Render(ctx).body;
        });

    // frag:[lang:]event:<id> — event summary (Fig. 15's per-event fragment).
    const std::string event_frag_prefix = FragPrefix(lang) + "event:";
    renderer->RegisterPrefix(
        event_frag_prefix,
        [db, lang, chrome, p, event_frag_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kEventFragmentTmpl);
          const auto id = ParseId(req.page, event_frag_prefix);
          if (!id) return InvalidArgumentError("bad fragment id");
          const auto event = LoadEvent(*db, *id);
          if (!event) return NotFoundError("no event " + std::to_string(*id));
          // Results are the substance of the summary; the event row itself
          // (venue/name) rarely changes — Fig. 1-style weights.
          req.deps.DependsOnData(EventNode(*id), 2.0);
          req.deps.DependsOnData(ResultsEventNode(*id), 5.0);

          TemplateContext ctx(chrome.get());
          ctx.Set("p", p)
              .Set("event_id", *id)
              .Set("event_name", event->name)
              .Set("status", event->status)
              .Set("venue", event->venue);
          std::vector<TemplateContext> top;
          for (const ResultInfo& r : ResultsForEvent(*db, *id)) {
            if (top.size() >= 3) break;
            AthleteInfo athlete = LoadAthlete(*db, r.athlete_id);
            top.emplace_back()
                .Set("athlete", std::move(athlete.name))
                .Set("country", std::move(athlete.country))
                .Set("score", FormatScore(r.score));
          }
          ctx.SetList("top", std::move(top));
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "event", std::to_string(*id)));
          return tmpl.get().Render(ctx).body;
        });

    // frag:[lang:]medals — the medal standings table.
    renderer->RegisterExact(
        MedalsFragment(lang),
        [db, lang, chrome, p](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kMedalsFragmentTmpl);
          req.deps.DependsOnData(kMedalsAllNode);
          struct Tally {
            std::string code, name;
            int64_t g, s, b;
          };
          std::vector<Tally> tallies;  // countries with a medal
          db->Read("countries", kAllRows, [&](const Row& r) {
            const int64_t g = AsInt(r[countries_col::kGolds]);
            const int64_t s = AsInt(r[countries_col::kSilvers]);
            const int64_t b = AsInt(r[countries_col::kBronzes]);
            if (g + s + b == 0) return;
            tallies.push_back(Tally{AsString(r[countries_col::kCode]),
                                    AsString(r[countries_col::kName]), g, s,
                                    b});
          });
          std::sort(tallies.begin(), tallies.end(),
                    [](const Tally& a, const Tally& b) {
                      if (a.g != b.g) return a.g > b.g;
                      return a.code < b.code;
                    });
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p);
          std::vector<TemplateContext> out;
          out.reserve(tallies.size());
          for (Tally& t : tallies) {
            out.emplace_back()
                .Set("code", std::move(t.code))
                .Set("name", std::move(t.name))
                .Set("g", t.g)
                .Set("s", t.s)
                .Set("b", t.b)
                .Set("total", t.g + t.s + t.b);
          }
          ctx.SetList("rows", std::move(out));
          return tmpl.get().Render(ctx).body;
        });

    // /day/<d> — the 1998 innovation: a home page per day, front-loading
    // the information clients previously needed 3+ navigations to reach.
    const std::string day_prefix = p + "/day/";
    renderer->RegisterPrefix(
        day_prefix,
        [db, lang, chrome,
         day_prefix](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kDayHomeTmpl);
          const auto day = ParseId(req.page, day_prefix);
          if (!day) return InvalidArgumentError("bad day");
          req.deps.DependsOnData(EventDayNode(*day));

          std::vector<int64_t> events;
          db->Read("events", db::RowFilter::Equals("day", Value(*day)),
                   [&](const Row& r) {
                     events.push_back(AsInt(r[events_col::kId]));
                   });
          TemplateContext ctx(chrome.get());
          ctx.Set("day", *day);

          auto medal_table = req.fragments(MedalsFragment(lang));
          if (!medal_table.ok()) return medal_table.status();
          ctx.Set("medal_table", medal_table.value());

          std::vector<TemplateContext> event_items;
          for (const int64_t eid : events) {
            auto summary = req.fragments(EventFragment(eid, lang));
            if (!summary.ok()) return summary.status();
            event_items.emplace_back().Set("summary", summary.value());
          }
          ctx.SetList("events", std::move(event_items));

          auto latest = req.fragments(LatestNewsFragment(lang));
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.get().Render(ctx).body;
        });

    // /event/<id> — full result page.
    const std::string event_prefix = p + "/event/";
    renderer->RegisterPrefix(
        event_prefix,
        [db, lang, chrome, p, event_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kEventPageTmpl);
          const auto id = ParseId(req.page, event_prefix);
          if (!id) return InvalidArgumentError("bad event id");
          const auto event = LoadEvent(*db, *id);
          if (!event) return NotFoundError("no event " + std::to_string(*id));
          req.deps.DependsOnData(EventNode(*id), 2.0);
          req.deps.DependsOnData(ResultsEventNode(*id), 5.0);
          req.deps.DependsOnData(MedalsEventNode(*id), 2.0);

          TemplateContext ctx(chrome.get());
          ctx.Set("p", p)
              .Set("event_name", event->name)
              .Set("sport_name", SportName(*db, event->sport_id))
              .Set("day", event->day)
              .Set("venue", event->venue)
              .Set("status", event->status);
          std::vector<TemplateContext> results;
          for (const ResultInfo& r : ResultsForEvent(*db, *id)) {
            req.deps.DependsOnData(AthleteNode(r.athlete_id));
            AthleteInfo athlete = LoadAthlete(*db, r.athlete_id);
            results.emplace_back()
                .Set("rank", r.rank)
                .Set("athlete_id", r.athlete_id)
                .Set("athlete", std::move(athlete.name))
                .Set("country", std::move(athlete.country))
                .Set("score", FormatScore(r.score));
          }
          ctx.SetList("results", std::move(results));
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "event", std::to_string(*id)));

          std::optional<std::array<int64_t, 3>> medalists;
          db->Read("medals", db::RowFilter::Key(Value(*id)), [&](const Row& m) {
            medalists = {AsInt(m[medals_col::kGold]),
                         AsInt(m[medals_col::kSilver]),
                         AsInt(m[medals_col::kBronze])};
          });
          if (medalists) {
            std::vector<TemplateContext> flag(1);
            flag[0]
                .Set("gold", LoadAthlete(*db, (*medalists)[0]).name)
                .Set("silver", LoadAthlete(*db, (*medalists)[1]).name)
                .Set("bronze", LoadAthlete(*db, (*medalists)[2]).name);
            ctx.SetList("has_medals", std::move(flag));
          }
          return tmpl.get().Render(ctx).body;
        });

    // /sport/<id> — sport page embedding its events' summary fragments.
    const std::string sport_prefix = p + "/sport/";
    renderer->RegisterPrefix(
        sport_prefix,
        [db, lang, chrome,
         sport_prefix](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kSportPageTmpl);
          const auto id = ParseId(req.page, sport_prefix);
          if (!id) return InvalidArgumentError("bad sport id");
          TemplateContext ctx(chrome.get());
          const size_t found = db->Read(
              "sports", db::RowFilter::Key(Value(*id)), [&](const Row& r) {
                ctx.Set("sport_name", AsString(r[sports_col::kName]));
              });
          if (found == 0) {
            return NotFoundError("no sport " + std::to_string(*id));
          }
          req.deps.DependsOnData(SportNode(*id));
          req.deps.DependsOnData(EventSportNode(*id));

          std::vector<int64_t> events;
          db->Read("events", db::RowFilter::Equals("sport_id", Value(*id)),
                   [&](const Row& r) {
                     events.push_back(AsInt(r[events_col::kId]));
                   });
          std::vector<TemplateContext> items;
          for (const int64_t eid : events) {
            auto summary = req.fragments(EventFragment(eid, lang));
            if (!summary.ok()) return summary.status();
            items.emplace_back().Set("summary", summary.value());
          }
          ctx.SetList("events", std::move(items));
          return tmpl.get().Render(ctx).body;
        });

    // /athlete/<id> — the 1998 site's per-athlete collation of results.
    const std::string athlete_prefix = p + "/athlete/";
    renderer->RegisterPrefix(
        athlete_prefix,
        [db, lang, chrome, p, athlete_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kAthletePageTmpl);
          const auto id = ParseId(req.page, athlete_prefix);
          if (!id) return InvalidArgumentError("bad athlete id");
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p);
          int64_t sport_id = 0;
          const size_t found = db->Read(
              "athletes", db::RowFilter::Key(Value(*id)), [&](const Row& a) {
                ctx.Set("name", AsString(a[athletes_col::kName]))
                    .Set("country", AsString(a[athletes_col::kCountry]));
                sport_id = AsInt(a[athletes_col::kSportId]);
              });
          if (found == 0) {
            return NotFoundError("no athlete " + std::to_string(*id));
          }
          req.deps.DependsOnData(AthleteNode(*id), 2.0);
          req.deps.DependsOnData(ResultsAthleteNode(*id), 5.0);

          ctx.Set("sport_name", SportName(*db, sport_id));
          std::vector<TemplateContext> items;
          for (const ResultInfo& r : LoadResults(*db, "athlete_id", *id)) {
            auto event = LoadEvent(*db, r.event_id);
            items.emplace_back()
                .Set("event_id", r.event_id)
                .Set("event_name",
                     event ? std::move(event->name) : std::string("(unknown)"))
                .Set("rank", r.rank)
                .Set("score", FormatScore(r.score));
          }
          ctx.SetList("results", std::move(items));
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "athlete", std::to_string(*id)));
          return tmpl.get().Render(ctx).body;
        });

    // /country/<code> — the 1998 site's per-country collation.
    const std::string country_prefix = p + "/country/";
    renderer->RegisterPrefix(
        country_prefix,
        [db, lang, chrome, p, country_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kCountryPageTmpl);
          if (req.page.size() <= country_prefix.size()) {
            return InvalidArgumentError("bad country");
          }
          const std::string code(req.page.substr(country_prefix.size()));
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p).Set("code", code);
          const size_t found = db->Read(
              "countries", db::RowFilter::Key(Value(code)), [&](const Row& c) {
                ctx.Set("name", AsString(c[countries_col::kName]))
                    .Set("g", AsInt(c[countries_col::kGolds]))
                    .Set("s", AsInt(c[countries_col::kSilvers]))
                    .Set("b", AsInt(c[countries_col::kBronzes]));
              });
          if (found == 0) return NotFoundError("no country " + code);
          req.deps.DependsOnData(CountryNode(code), 3.0);
          req.deps.DependsOnData(MedalsCountryNode(code), 2.0);
          req.deps.DependsOnData(AthleteCountryNode(code), 1.0);

          std::vector<TemplateContext> items;
          db->Read("athletes", db::RowFilter::Equals("country", Value(code)),
                   [&](const Row& r) {
                     items.emplace_back()
                         .Set("id", AsInt(r[athletes_col::kId]))
                         .Set("athlete", AsString(r[athletes_col::kName]));
                   });
          ctx.SetList("athletes", std::move(items));
          ctx.Set("photos", PhotoStrip(*db, req.deps, "country", code));
          auto latest = req.fragments(LatestNewsFragment(lang));
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.get().Render(ctx).body;
        });

    // /medals — standings page wrapping the fragment.
    renderer->RegisterExact(
        MedalsPage(lang),
        [lang, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kMedalsPageTmpl);
          TemplateContext ctx(chrome.get());
          auto table = req.fragments(MedalsFragment(lang));
          if (!table.ok()) return table.status();
          ctx.Set("medal_table", table.value());
          return tmpl.get().Render(ctx).body;
        });

    // /schedule/day/<d> — the day's programme.
    const std::string schedule_prefix = p + "/schedule/day/";
    renderer->RegisterPrefix(
        schedule_prefix,
        [db, lang, chrome, p, schedule_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kSchedulePageTmpl);
          const auto day = ParseId(req.page, schedule_prefix);
          if (!day) return InvalidArgumentError("bad day");
          req.deps.DependsOnData(EventDayNode(*day));
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p).Set("day", *day);
          std::vector<TemplateContext> items;
          db->Read("events", db::RowFilter::Equals("day", Value(*day)),
                   [&](const Row& r) {
                     // Status is read straight off the row, so freshness
                     // needs the per-event node — the membership node above
                     // only covers which events appear.
                     req.deps.DependsOnData(
                         EventNode(AsInt(r[events_col::kId])));
                     items.emplace_back()
                         .Set("id", AsInt(r[events_col::kId]))
                         .Set("event_name", AsString(r[events_col::kName]))
                         .Set("venue", AsString(r[events_col::kVenue]))
                         .Set("status", AsString(r[events_col::kStatus]));
                   });
          ctx.SetList("events", std::move(items));
          return tmpl.get().Render(ctx).body;
        });

    // /venue/<slug> — §3.1 category 4: "information on where the sports
    // were performed", combined with that venue's programme.
    const std::string venue_prefix = p + "/venue/";
    renderer->RegisterPrefix(
        venue_prefix,
        [db, lang, chrome, p, venue_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kVenuePageTmpl);
          if (req.page.size() <= venue_prefix.size()) {
            return InvalidArgumentError("bad venue");
          }
          const std::string name =
              VenueUnslug(req.page.substr(venue_prefix.size()));
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p).Set("venue", name);
          const size_t found = db->Read(
              "venues", db::RowFilter::Key(Value(name)), [&](const Row& v) {
                ctx.Set("locality", AsString(v[1]))
                    .Set("capacity", AsInt(v[2]));
              });
          if (found == 0) return NotFoundError("no venue " + name);
          req.deps.DependsOnData(VenueNode(name));
          req.deps.DependsOnData(EventVenueNode(name));

          std::vector<TemplateContext> items;
          db->Read("events", db::RowFilter::Equals("venue", Value(name)),
                   [&](const Row& r) {
                     // Same as the schedule page: status comes off the row
                     // itself.
                     req.deps.DependsOnData(
                         EventNode(AsInt(r[events_col::kId])));
                     items.emplace_back()
                         .Set("id", AsInt(r[events_col::kId]))
                         .Set("event_name", AsString(r[events_col::kName]))
                         .Set("day", AsInt(r[events_col::kDay]))
                         .Set("status", AsString(r[events_col::kStatus]));
                   });
          ctx.SetList("events", std::move(items));
          ctx.Set("photos", PhotoStrip(*db, req.deps, "venue", name));
          return tmpl.get().Render(ctx).body;
        });

    // /nagano — §3.1 category 8: "information about Nagano, Japan".
    renderer->RegisterExact(
        NaganoPage(lang),
        [db, lang, chrome, p](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNaganoPageTmpl);
          req.deps.DependsOnData(kVenuesAllNode);
          TemplateContext ctx(chrome.get());
          ctx.Set("p", p);
          std::vector<TemplateContext> items;
          db->Read("venues", kAllRows, [&](const Row& r) {
            items.emplace_back()
                .Set("venue", AsString(r[0]))
                .Set("slug", VenueSlug(AsString(r[0])))
                .Set("locality", AsString(r[1]));
          });
          ctx.SetList("venues", std::move(items));
          return tmpl.get().Render(ctx).body;
        });

    // /fun — §3.1 category 9: "sports-related activities for children".
    renderer->RegisterExact(
        FunPage(lang),
        [db, lang, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kFunPageTmpl);
          (void)req;
          TemplateContext ctx(chrome.get());
          ctx.Set("sports", int64_t(db->RowCount("sports")));
          return tmpl.get().Render(ctx).body;
        });

    register_news(lang);
  }

  // "All news articles were also available in French."
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    register_news("fr");
  }
}

// --- change mapping --------------------------------------------------------------

std::vector<std::string> OlympicSite::MapChangeToDataNodes(
    const ChangeRecord& change, const Database& db) {
  std::vector<std::string> nodes;
  const bool is_delete = change.op == db::ChangeOp::kDelete;

  if (change.table == "results") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("results:*");
      return nodes;
    }
    nodes.push_back(ResultsEventNode(AsInt(change.row[results_col::kEventId])));
    nodes.push_back(
        ResultsAthleteNode(AsInt(change.row[results_col::kAthleteId])));
  } else if (change.table == "events") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("events:*");
      return nodes;
    }
    nodes.push_back(EventNode(AsInt(change.row[events_col::kId])));
    // Day/sport/venue membership is fixed when the event row is inserted;
    // updates touch mutable columns only (status), which pages read through
    // the per-event node. Keeping membership nodes out of the update mapping
    // is what lets a completion patch day/sport plans instead of re-rendering
    // them.
    if (change.op != db::ChangeOp::kUpdate) {
      nodes.push_back(EventDayNode(AsInt(change.row[events_col::kDay])));
      nodes.push_back(EventSportNode(AsInt(change.row[events_col::kSportId])));
      nodes.push_back(EventVenueNode(AsString(change.row[events_col::kVenue])));
    }
  } else if (change.table == "medals") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kMedalsAllNode);
      return nodes;
    }
    nodes.push_back(MedalsEventNode(AsInt(change.row[medals_col::kEventId])));
    nodes.push_back(kMedalsAllNode);
    for (size_t c : {medals_col::kGold, medals_col::kSilver, medals_col::kBronze}) {
      nodes.push_back(
          MedalsCountryNode(LoadAthlete(db, AsInt(change.row[c])).country));
    }
  } else if (change.table == "countries") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("countries:*");
      nodes.push_back(kMedalsAllNode);
      return nodes;
    }
    nodes.push_back(CountryNode(AsString(change.row[countries_col::kCode])));
    // Medal tallies live in this table; the standings fragment depends on
    // the aggregate node.
    nodes.push_back(kMedalsAllNode);
  } else if (change.table == "athletes") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("athletes:*");
      return nodes;
    }
    nodes.push_back(AthleteNode(AsInt(change.row[athletes_col::kId])));
    nodes.push_back(
        AthleteCountryNode(AsString(change.row[athletes_col::kCountry])));
  } else if (change.table == "photos") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("photos:*");
      return nodes;
    }
    nodes.push_back(PhotoSubjectNode(AsString(change.row[2]),
                                     AsString(change.row[3])));
  } else if (change.table == "venues") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kVenuesAllNode);
      return nodes;
    }
    nodes.push_back(VenueNode(AsString(change.row[0])));
    nodes.push_back(kVenuesAllNode);
  } else if (change.table == "news") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kNewsAllNode);
      nodes.push_back(kNewsLatestNode);
      return nodes;
    }
    nodes.push_back(NewsNode(AsInt(change.row[news_col::kId])));
    nodes.push_back(kNewsLatestNode);
    nodes.push_back(kNewsAllNode);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// --- enumeration -------------------------------------------------------------------

std::vector<std::string> OlympicSite::AllPageNames(const OlympicConfig& config,
                                                   const Database& db) {
  std::vector<std::string> pages;
  for (const std::string& lang : FullLanguages(config)) {
    const std::string p = PagePrefix(lang);
    pages.push_back(p + "/");
    pages.push_back(MedalsPage(lang));
    pages.push_back(NewsIndexPage(lang));
    for (int d = 1; d <= config.days; ++d) {
      pages.push_back(DayHomePage(d, lang));
      pages.push_back(p + "/schedule/day/" + std::to_string(d));
    }
    db.Read("sports", kAllRows, [&](const Row& r) {
      pages.push_back(SportPage(AsInt(r[sports_col::kId]), lang));
    });
    db.Read("events", kAllRows, [&](const Row& r) {
      pages.push_back(EventPage(AsInt(r[events_col::kId]), lang));
    });
    db.Read("athletes", kAllRows, [&](const Row& r) {
      pages.push_back(AthletePage(AsInt(r[athletes_col::kId]), lang));
    });
    db.Read("countries", kAllRows, [&](const Row& r) {
      pages.push_back(CountryPage(AsString(r[countries_col::kCode]), lang));
    });
    db.Read("news", kAllRows, [&](const Row& r) {
      pages.push_back(NewsPage(AsInt(r[news_col::kId]), lang));
    });
    db.Read("venues", kAllRows, [&](const Row& r) {
      pages.push_back(VenuePage(AsString(r[0]), lang));
    });
    pages.push_back(NaganoPage(lang));
    pages.push_back(FunPage(lang));
  }
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    pages.push_back(NewsIndexPage("fr"));
    db.Read("news", kAllRows, [&](const Row& r) {
      pages.push_back(NewsPage(AsInt(r[news_col::kId]), "fr"));
    });
  }
  return pages;
}

std::vector<std::string> OlympicSite::AllFragmentNames(
    const OlympicConfig& config, const Database& db) {
  std::vector<std::string> fragments;
  for (const std::string& lang : FullLanguages(config)) {
    fragments.push_back(MedalsFragment(lang));
    fragments.push_back(LatestNewsFragment(lang));
    db.Read("events", kAllRows, [&](const Row& r) {
      fragments.push_back(EventFragment(AsInt(r[events_col::kId]), lang));
    });
  }
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    fragments.push_back(LatestNewsFragment("fr"));
  }
  return fragments;
}

// --- result-feed mutations ------------------------------------------------------------

Status OlympicSite::RecordResult(Database* db, int64_t event_id, int64_t rank,
                                 int64_t athlete_id, double score) {
  std::optional<Row> event;
  db->Read("events", db::RowFilter::Key(Value(event_id)),
           [&](const Row& r) { event = r; });
  if (!event) return NotFoundError("no event " + std::to_string(event_id));
  db::WriteBatch batch;
  batch.Upsert("results", Row{Value(ResultKey(event_id, rank)), Value(event_id),
                              Value(rank), Value(athlete_id), Value(score)});
  if (AsString((*event)[events_col::kStatus]) == "scheduled") {
    (*event)[events_col::kStatus] = std::string("in_progress");
    batch.Upsert("events", std::move(*event));
  }
  return db->Commit(std::move(batch));
}

Status OlympicSite::CompleteEvent(Database* db, int64_t event_id) {
  std::optional<Row> event;
  db->Read("events", db::RowFilter::Key(Value(event_id)),
           [&](const Row& r) { event = r; });
  if (!event) return NotFoundError("no event " + std::to_string(event_id));

  const auto results = ResultsForEvent(*db, event_id);
  if (results.size() < 3) {
    return FailedPreconditionError("CompleteEvent: fewer than 3 results");
  }

  const int64_t gold = results[0].athlete_id;
  const int64_t silver = results[1].athlete_id;
  const int64_t bronze = results[2].athlete_id;

  // One commit: the medals row, each medallist country's tally, then the
  // event's status, so no reader sees a medal without its tally or a
  // medallist list without the final status.
  db::WriteBatch batch;
  batch.Upsert("medals", Row{Value(event_id), Value(gold), Value(silver),
                             Value(bronze)});
  // A country with two medallists is bumped twice on one row; each bump
  // commits the row's image after it.
  std::map<std::string, Row> tallies;
  const std::pair<int64_t, size_t> awards[] = {
      {gold, countries_col::kGolds},
      {silver, countries_col::kSilvers},
      {bronze, countries_col::kBronzes}};
  for (const auto& [athlete, column] : awards) {
    const std::string cc = LoadAthlete(*db, athlete).country;
    auto it = tallies.find(cc);
    if (it == tallies.end()) {
      std::optional<Row> country;
      db->Read("countries", db::RowFilter::Key(Value(cc)),
               [&](const Row& r) { country = r; });
      if (!country) return NotFoundError("no country " + cc);
      it = tallies.emplace(cc, std::move(*country)).first;
    }
    Row& row = it->second;
    row[column] = AsInt(row[column]) + 1;
    batch.Upsert("countries", row);
  }

  (*event)[events_col::kStatus] = std::string("final");
  batch.Upsert("events", std::move(*event));
  return db->Commit(std::move(batch));
}

Status OlympicSite::PublishPhoto(Database* db, int64_t photo_id,
                                 std::string_view caption,
                                 std::string_view subject_kind,
                                 std::string_view subject_id, int day) {
  return db->Upsert("photos",
                    Row{Value(photo_id), Value(std::string(caption)),
                        Value(std::string(subject_kind)),
                        Value(std::string(subject_id)), Value(int64_t(day))});
}

Status OlympicSite::PublishNews(Database* db, int64_t article_id, int day,
                                std::string_view title, std::string_view body,
                                int64_t sport_id) {
  return db->Upsert("news", NewsRow(article_id, day, title, body, sport_id));
}

}  // namespace nagano::pagegen
