// mqpi_shell: a tiny psql-style driver for the library, script-friendly
// (reads commands from stdin, echoes results to stdout). Since the
// service layer landed it runs against a PiService *session* in manual
// mode — the same admission accounting, ownership checks, snapshots,
// and metrics a concurrent deployment gets, but stepped
// deterministically by the `step` command instead of a ticker thread.
//
//   ./mqpi_shell <<'EOF'
//   gen lineitem 2000 30
//   gen part part_a 40
//   explain select count(*) from lineitem where partkey > 1900
//   submit select * from part_a p where p.retailprice * 0.75 >
//          (select sum(l.extendedprice) / sum(l.quantity)
//           from lineitem l where l.partkey = p.partkey)
//   step 5
//   pis
//   run
//   metrics
//   EOF
//
// Commands:
//   gen lineitem <keys> <matches>   build lineitem + index
//   gen part <name> <N_i>           build a part table (10*N_i rows)
//   submit <sql>                    parse, plan, and submit via the session
//   explain <sql>                   show the plan without running
//   step <seconds>                  advance simulated time
//   pis                             progress dashboard (snapshot contents)
//   block <id> / resume <id> / abort <id>   (session-owned queries only)
//   priority <id> low|normal|high|critical
//   run                             step until idle
//   metrics [prom]                  dump the metrics registry (text or
//                                   Prometheus exposition format)
//   accuracy                        estimate-accuracy report (auditor)
//   trace on|off                    toggle runtime tracing
//   trace save <path>               write a Chrome trace_event JSON file
//   trace jsonl <path>              write the trace as JSONL
//   trace clear                     drop buffered trace events
//   quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/sql_parser.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/tpcr_gen.h"

using namespace mqpi;

namespace {

struct Shell {
  storage::Catalog catalog;
  std::unique_ptr<storage::TpcrGenerator> generator;
  std::unique_ptr<service::PiService> db;
  std::unique_ptr<service::Session> session;

  Shell() {
    service::PiServiceOptions options;
    options.rdbms.processing_rate = 1000.0;
    options.rdbms.quantum = 0.1;
    options.rdbms.cost_model.noise_sigma = 0.15;
    options.start_ticker = false;  // deterministic: we drive the clock
    db = std::make_unique<service::PiService>(&catalog, options);
    session = db->OpenSession("shell");
  }
  ~Shell() { session->Close(); }

  void ShowPis() {
    db->PublishNow();  // fold in submissions since the last step
    const service::SnapshotPtr snap = db->snapshot();
    std::printf("t=%.1f s | running %d | queued %d\n", snap->sim_time,
                snap->num_running, snap->num_queued);
    auto eta = [](SimTime t) -> std::string {
      if (t == kUnknown || t >= kInfiniteTime) return "?";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1fs", t);
      return buf;
    };
    for (const auto& q : snap->queries) {
      if (q.terminal()) continue;
      std::printf("  #%llu %-8s %5.1f%%  single %8s  multi %8s  %.48s\n",
                  static_cast<unsigned long long>(q.id),
                  std::string(sched::QueryStateName(q.state)).c_str(),
                  100.0 * q.fraction_done, eta(q.eta_single).c_str(),
                  eta(q.eta_multi).c_str(), q.label.str().c_str());
    }
  }
};

Result<Priority> ParsePriority(const std::string& name) {
  if (name == "low") return Priority::kLow;
  if (name == "normal") return Priority::kNormal;
  if (name == "high") return Priority::kHigh;
  if (name == "critical") return Priority::kCritical;
  return Status::InvalidArgument("unknown priority '" + name + "'");
}

}  // namespace

int main() {
  Shell shell;
  std::string line;
  std::printf("mqpi shell — type commands (see source header); 'quit' "
              "exits.\n");
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "gen") {
      std::string what;
      is >> what;
      if (what == "lineitem") {
        std::int64_t keys = 2000;
        int matches = 30;
        is >> keys >> matches;
        shell.generator = std::make_unique<storage::TpcrGenerator>(
            storage::TpcrConfig{keys, matches, 42});
        const Status status = shell.generator->BuildLineitem(&shell.catalog);
        std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      } else if (what == "part") {
        std::string name;
        std::int64_t n_i = 10;
        is >> name >> n_i;
        if (!shell.generator) {
          std::printf("error: gen lineitem first\n");
          continue;
        }
        const Status status =
            shell.generator->BuildPartTable(&shell.catalog, name, n_i);
        std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      } else {
        std::printf("usage: gen lineitem <keys> <matches> | gen part "
                    "<name> <N_i>\n");
      }
      continue;
    }

    if (cmd == "submit" || cmd == "explain") {
      std::string sql;
      std::getline(is, sql);
      // Allow multi-line SQL: keep reading while the parse fails with a
      // premature end (simple heuristic: unbalanced parentheses).
      auto balanced = [](const std::string& s) {
        int depth = 0;
        for (char c : s) {
          if (c == '(') ++depth;
          if (c == ')') --depth;
        }
        return depth <= 0;
      };
      std::string more;
      while (!balanced(sql) && std::getline(std::cin, more)) {
        sql += " " + more;
      }
      auto spec = engine::ParseSql(sql);
      if (!spec.ok()) {
        std::printf("parse error: %s\n", spec.status().ToString().c_str());
        continue;
      }
      if (cmd == "explain") {
        auto report = shell.db->Explain(*spec);
        std::printf("%s\n", report.ok() ? report->c_str()
                                        : report.status().ToString().c_str());
      } else {
        auto id = shell.session->Submit(*spec);
        if (id.ok()) {
          std::printf("submitted #%llu\n",
                      static_cast<unsigned long long>(*id));
        } else {
          std::printf("error: %s\n", id.status().ToString().c_str());
        }
      }
      continue;
    }

    if (cmd == "step") {
      double seconds = 1.0;
      is >> seconds;
      const Status status = shell.db->Advance(seconds);
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        continue;
      }
      std::printf("t=%.1f s\n", shell.db->now());
      continue;
    }
    if (cmd == "pis") {
      shell.ShowPis();
      continue;
    }
    if (cmd == "run") {
      auto t = shell.db->AdvanceUntilIdle();
      if (t.ok()) {
        std::printf("idle at t=%.1f s\n", *t);
      } else {
        std::printf("error: %s\n", t.status().ToString().c_str());
      }
      continue;
    }
    if (cmd == "metrics") {
      std::string format;
      is >> format;
      std::printf("%s", format == "prom"
                            ? shell.db->metrics()->PrometheusDump().c_str()
                            : shell.db->metrics()->TextDump().c_str());
      continue;
    }
    if (cmd == "accuracy") {
      std::printf("%s", shell.db->auditor()->RenderText().c_str());
      continue;
    }
    if (cmd == "trace") {
      std::string sub;
      is >> sub;
      obs::Tracer* tracer = shell.db->tracer();
      if (sub == "on" || sub == "off") {
        tracer->set_enabled(sub == "on");
        std::printf("tracing %s\n", sub.c_str());
      } else if (sub == "clear") {
        tracer->Clear();
        std::printf("ok\n");
      } else if (sub == "save" || sub == "jsonl") {
        std::string path;
        is >> path;
        if (path.empty()) {
          std::printf("usage: trace %s <path>\n", sub.c_str());
          continue;
        }
        const Status status = sub == "save" ? tracer->WriteChromeTrace(path)
                                            : tracer->WriteJsonl(path);
        if (status.ok()) {
          std::printf("wrote %zu events to %s (%llu dropped)\n",
                      tracer->Events().size(), path.c_str(),
                      static_cast<unsigned long long>(tracer->dropped()));
        } else {
          std::printf("error: %s\n", status.ToString().c_str());
        }
      } else {
        std::printf("usage: trace on|off|clear|save <path>|jsonl <path>\n");
      }
      continue;
    }
    if (cmd == "block" || cmd == "resume" || cmd == "abort") {
      QueryId id = 0;
      is >> id;
      const Status status = cmd == "block"    ? shell.session->Block(id)
                            : cmd == "resume" ? shell.session->Resume(id)
                                              : shell.session->Abort(id);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    if (cmd == "priority") {
      QueryId id = 0;
      std::string level;
      is >> id >> level;
      auto priority = ParsePriority(level);
      if (!priority.ok()) {
        std::printf("%s\n", priority.status().ToString().c_str());
        continue;
      }
      const Status status = shell.session->SetPriority(id, *priority);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
      continue;
    }
    std::printf("unknown command '%s'\n", cmd.c_str());
  }
  return 0;
}
