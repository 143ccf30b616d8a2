// Operations plane (serve/admin.hpp): endpoint rendering over real HTTP,
// /statusz flat-JSON introspection, /healthz state transitions,
// scrape/no-scrape byte-identity of scored output, head sampling into
// /tracez, and misusedet_top's refusal of flags it does not read.
#include "serve/admin.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/event.hpp"
#include "serve/metrics.hpp"
#include "serve/trace_sampler.hpp"
#include "synth/portal.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"
#include "util/trace.hpp"

namespace misuse::serve {
namespace {

// ---------------------------------------------------------------------------
// Plain-socket HTTP client, deliberately independent of the server's own
// response writer so framing bugs cannot cancel out.

struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
};

HttpResponse http_request(std::uint16_t port, const std::string& request_line) {
  HttpResponse response;
  TcpStream stream = tcp_connect("127.0.0.1", port);
  stream.set_read_timeout(10.0);
  stream.io() << request_line << "\r\n\r\n" << std::flush;
  stream.shutdown_write();
  std::ostringstream sink;
  sink << stream.io().rdbuf();  // drain to EOF (the server closes)
  const std::string raw = sink.str();
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return response;
  const std::string head = raw.substr(0, header_end);
  response.body = raw.substr(header_end + 4);
  std::istringstream lines(head);
  std::string line;
  if (std::getline(lines, line)) {
    // "HTTP/1.0 200 OK"
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) response.status = std::atoi(line.c_str() + space + 1);
  }
  while (std::getline(lines, line)) {
    if (line.rfind("Content-Type:", 0) == 0) {
      std::string value = line.substr(13);
      while (!value.empty() && (value.front() == ' ')) value.erase(value.begin());
      while (!value.empty() && (value.back() == '\r' || value.back() == '\n')) value.pop_back();
      response.content_type = value;
    }
  }
  return response;
}

HttpResponse http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0");
}

// ---------------------------------------------------------------------------
// Suite fixture: one small trained detector shared by every test (same
// configuration as test_serve.cpp's ServeFixture).

class AdminFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 220;
    pc.users = 40;
    pc.action_count = 60;
    pc.seed = 42;
    store_ = new SessionStore(synth::Portal(pc).generate());
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {10, 13};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 4;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new core::MisuseDetector(core::MisuseDetector::train(*store_, dc));
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    detector_ = nullptr;
    store_ = nullptr;
  }

  static std::vector<std::span<const int>> pick_sessions(std::size_t count) {
    std::vector<std::span<const int>> picked;
    for (std::size_t i = 0; i < store_->size() && picked.size() < count; ++i) {
      if (store_->at(i).length() >= 2 && store_->at(i).length() <= 40) {
        picked.push_back(store_->at(i).view());
      }
    }
    return picked;
  }

  static std::vector<Event> interleave(const std::vector<std::span<const int>>& sessions,
                                       std::size_t id_offset = 0) {
    std::vector<Event> events;
    std::vector<std::size_t> cursor(sessions.size(), 0);
    double t = 0.0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (cursor[s] >= sessions[s].size()) continue;
        Event e;
        e.user_id = std::string("u").append(std::to_string((id_offset + s) % 5));
        e.session_id = std::string("s").append(std::to_string(id_offset + s));
        e.action = detector_->vocab().name(sessions[s][cursor[s]]);
        e.timestamp = t;
        e.has_timestamp = true;
        t += 1.0;
        ++cursor[s];
        events.push_back(std::move(e));
        progressed = true;
      }
    }
    return events;
  }

  /// Scores `events` against `server` as one batch, then shuts it down,
  /// returning the emitted lines in order.
  static std::vector<std::string> score(ScoringServer& server, const std::vector<Event>& events) {
    std::vector<OutputRecord> out;
    server.submit_batch(events, out);
    server.shutdown(out);
    std::vector<std::string> lines;
    lines.reserve(out.size());
    for (const auto& r : out) lines.push_back(r.line);
    return lines;
  }

  static SessionStore* store_;
  static core::MisuseDetector* detector_;
};

SessionStore* AdminFixture::store_ = nullptr;
core::MisuseDetector* AdminFixture::detector_ = nullptr;

// ---------------------------------------------------------------------------
// Endpoints over real HTTP.

TEST_F(AdminFixture, MetricsEndpointServesPrometheusText) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminConfig admin_config;
  admin_config.port = 0;  // ephemeral
  AdminServer admin(server, admin_config);
  ASSERT_NE(admin.port(), 0);

  std::vector<OutputRecord> out;
  for (const Event& e : interleave(pick_sessions(4))) {
    (void)server.enqueue(e, out);
  }
  server.pump(out);

  const auto scrapes_before = serve_metrics().admin_scrapes.value();
  const HttpResponse response = http_get(admin.port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("# TYPE misusedet_serve_steps_total counter"), std::string::npos);
  EXPECT_NE(response.body.find("misusedet_serve_steps_total "), std::string::npos);
  EXPECT_NE(response.body.find("misusedet_serve_step_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_GT(serve_metrics().admin_scrapes.value(), scrapes_before);
}

TEST_F(AdminFixture, StatuszIsOneFlatJsonLine) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminConfig admin_config;
  admin_config.infer_kernel = "scalar";
  AdminServer admin(server, admin_config);

  std::vector<OutputRecord> out;
  const auto events = interleave(pick_sessions(5));
  for (const Event& e : events) (void)server.enqueue(e, out);
  server.pump(out);

  const HttpResponse response = http_get(admin.port(), "/statusz");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  // One flat object on a single line — parseable by util/line_io.
  std::string body = response.body;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_EQ(body.find('\n'), std::string::npos);
  std::vector<JsonField> fields;
  std::string error;
  ASSERT_TRUE(parse_flat_json(body, fields, error)) << error;
  EXPECT_GT(get_number(fields, "sessions_active").value_or(-1.0), 0.0);
  EXPECT_GE(get_number(fields, "uptime_seconds").value_or(-1.0), 0.0);
  EXPECT_EQ(get_string(fields, "infer_kernel"), "scalar");
  EXPECT_EQ(get_string(fields, "wal_enabled"), "false");
  EXPECT_EQ(get_number(fields, "next_seq"), static_cast<double>(events.size() + 1));
  // The replay a crash would need: every event since the last checkpoint.
  EXPECT_EQ(get_number(fields, "events_since_checkpoint"), static_cast<double>(events.size()));
  // One session table: no shard count and no per-shard fields. Nor any
  // watermark field: the lag a crash would replay is the line above.
  for (const JsonField& field : fields) {
    EXPECT_NE(field.key, "shards");
    EXPECT_NE(field.key.rfind("shard.", 0), 0u) << field.key;
    EXPECT_EQ(field.key.find("watermark"), std::string::npos) << field.key;
  }
}

TEST_F(AdminFixture, StatuszSurfacesLearnStateWithPrefix) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminHooks hooks;
  // What misusedet_learnd publishes to <registry>/LEARN_STATUS.
  hooks.learn_status = [] {
    return std::string(
        R"({"phase":"watching","cycle":3,"candidate":7,"decision":"promote",)"
        R"("reason":"guardrails_passed","flip_rate":0.004,"buffer_windows":12})");
  };
  AdminConfig admin_config;
  AdminServer admin(server, admin_config, hooks);

  const HttpResponse response = http_get(admin.port(), "/statusz");
  ASSERT_EQ(response.status, 200);
  std::string body = response.body;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_EQ(body.find('\n'), std::string::npos) << "learn fields broke the one-line contract";
  std::vector<JsonField> fields;
  std::string error;
  ASSERT_TRUE(parse_flat_json(body, fields, error)) << error;
  EXPECT_EQ(get_string(fields, "learn_phase"), "watching");
  EXPECT_EQ(get_number(fields, "learn_cycle"), 3.0);
  EXPECT_EQ(get_number(fields, "learn_candidate"), 7.0);
  EXPECT_EQ(get_string(fields, "learn_decision"), "promote");
  EXPECT_EQ(get_number(fields, "learn_flip_rate"), 0.004);

  // No learnd running (hook returns empty): no learn_ fields at all.
  AdminHooks idle_hooks;
  idle_hooks.learn_status = [] { return std::string(); };
  AdminServer idle_admin(server, admin_config, idle_hooks);
  const HttpResponse idle = http_get(idle_admin.port(), "/statusz");
  ASSERT_EQ(idle.status, 200);
  EXPECT_EQ(idle.body.find("learn_"), std::string::npos);
}

TEST_F(AdminFixture, UnknownPathAndMethodAreRejected) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminServer admin(server, AdminConfig{});
  EXPECT_EQ(http_get(admin.port(), "/nope").status, 404);
  EXPECT_EQ(http_request(admin.port(), "POST /metrics HTTP/1.0").status, 405);
}

// misusedet_top refuses a flag it does not read before it polls anything:
// exit 2, naming the flag (--no-X counts as X), and nothing on stdout. A
// mistyped --intreval would otherwise poll at the default interval.
TEST_F(AdminFixture, TopRejectsUnknownFlags) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminServer admin(server, AdminConfig{});
  const std::string dir = ::testing::TempDir() + "misusedet_top_" + std::to_string(::getpid());
  const std::string out = dir + ".out";
  const std::string err = dir + ".err";
  const auto run = [&](const std::string& args) {
    const std::string command = std::string(MISUSEDET_TOP_BIN) + " --port=" +
                                std::to_string(admin.port()) + " " + args + " > " + out +
                                " 2> " + err;
    const int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  const auto text = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
  };
  EXPECT_EQ(run("--intreval=5 --iterations=1 --plain"), 2);
  EXPECT_NE(text(err).find("unknown flag --intreval"), std::string::npos) << text(err);
  EXPECT_TRUE(text(out).empty()) << text(out);
  EXPECT_EQ(run("--no-color --dump=healthz"), 2);
  EXPECT_NE(text(err).find("unknown flag --color"), std::string::npos) << text(err);
  EXPECT_TRUE(text(out).empty()) << text(out);

  EXPECT_EQ(run("--dump=healthz --no-plain"), 0) << text(err);
  EXPECT_NE(text(out).find("\"status\":\"ok\""), std::string::npos) << text(out);
  std::remove(out.c_str());
  std::remove(err.c_str());
}

TEST_F(AdminFixture, StopIsIdempotentAndPortIsEphemeral) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminConfig admin_config;
  admin_config.port = 0;
  AdminServer admin(server, admin_config);
  EXPECT_NE(admin.port(), 0);
  admin.stop();
  admin.stop();  // second stop must be a no-op
}

// ---------------------------------------------------------------------------
// /healthz transitions.

TEST_F(AdminFixture, HealthzReportsOkOnFreshServer) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminServer admin(server, AdminConfig{});
  const HttpResponse response = http_get(admin.port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  std::vector<JsonField> fields;
  std::string error;
  ASSERT_TRUE(parse_flat_json(response.body.substr(0, response.body.find('\n')), fields, error))
      << error;
  EXPECT_EQ(get_string(fields, "status"), "ok");
}

TEST_F(AdminFixture, HealthzTracksReloadFailureStreak) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  AdminServer admin(server, AdminConfig{});

  // The streak gauge is process-global serve state; restore it on exit.
  serve_metrics().reload_failure_streak.set(1);
  int status = 0;
  std::string body = admin.render_healthz(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("reload"), std::string::npos) << body;

  serve_metrics().reload_failure_streak.set(3);
  body = admin.render_healthz(&status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"unhealthy\""), std::string::npos) << body;

  serve_metrics().reload_failure_streak.set(0);
  body = admin.render_healthz(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
}

// ---------------------------------------------------------------------------
// Byte-identity: scraping every endpoint (in-process and over HTTP) while
// the data path runs must not change a single output byte.

TEST_F(AdminFixture, ScrapingDoesNotPerturbScoredOutput) {
  const auto events = interleave(pick_sessions(6));

  ServeConfig config;
  std::vector<std::string> baseline;
  {
    ScoringServer server(*detector_, config);
    baseline = score(server, events);
  }
  ASSERT_FALSE(baseline.empty());

  std::vector<std::string> observed;
  {
    ScoringServer server(*detector_, config);
    AdminServer admin(server, AdminConfig{});
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load()) {
        (void)admin.render_metrics();
        (void)admin.render_statusz();
        int status = 0;
        (void)admin.render_healthz(&status);
        (void)http_get(admin.port(), "/metrics");
        (void)http_get(admin.port(), "/statusz");
      }
    });
    observed = score(server, events);
    stop.store(true);
    scraper.join();
  }
  ASSERT_EQ(baseline.size(), observed.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i], observed[i]) << "line " << i;
  }
}

// ---------------------------------------------------------------------------
// Trace sampling into /tracez.

TEST(SessionTraceSampler, HeadSamplesFirstDistinctKeys) {
  SessionTraceSampler sampler(2);
  EXPECT_EQ(sampler.head_count(), 2u);
  EXPECT_TRUE(sampler.sampled("a"));
  EXPECT_TRUE(sampler.sampled("b"));
  EXPECT_FALSE(sampler.sampled("c"));  // head is full
  EXPECT_TRUE(sampler.sampled("a"));   // members stay sampled
  EXPECT_FALSE(sampler.sampled("c"));
  EXPECT_EQ(sampler.sampled_count(), 2u);
}

TEST_F(AdminFixture, TracezExportsOnlyHeadSampledSessions) {
  trace_events().enable(4096);
  ServeConfig config;
  ScoringServer server(*detector_, config);
  auto sampler = std::make_shared<SessionTraceSampler>(2);
  server.set_trace_sampler(sampler);
  AdminServer admin(server, AdminConfig{});

  std::vector<OutputRecord> out;
  server.submit_batch(interleave(pick_sessions(4)), out);
  server.shutdown(out);

  // Exactly the head: 4 distinct sessions offered, 2 sampled.
  EXPECT_EQ(sampler->sampled_count(), 2u);
  const auto recorded = trace_events().snapshot();
  ASSERT_FALSE(recorded.empty());
  std::set<std::string> tracks;
  for (const auto& event : recorded) tracks.insert(event.track);
  EXPECT_LE(tracks.size(), 2u);

  // Chrome export over HTTP.
  const HttpResponse chrome = http_get(admin.port(), "/tracez");
  EXPECT_EQ(chrome.status, 200);
  EXPECT_EQ(chrome.content_type, "application/json");
  EXPECT_NE(chrome.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.body.find("\"ph\":\"X\""), std::string::npos);

  // NDJSON export: every line is itself flat-parseable.
  const HttpResponse ndjson = http_get(admin.port(), "/tracez?format=ndjson");
  EXPECT_EQ(ndjson.status, 200);
  std::istringstream lines(ndjson.body);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::vector<JsonField> fields;
    std::string error;
    ASSERT_TRUE(parse_flat_json(line, fields, error)) << error << ": " << line;
    EXPECT_TRUE(get_string(fields, "name").has_value());
    EXPECT_TRUE(get_number(fields, "start_nanos").has_value());
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);

  server.set_trace_sampler(nullptr);
  trace_events().disable();
}

}  // namespace
}  // namespace misuse::serve
