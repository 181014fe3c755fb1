// scada_serve: the fleet-audit batch analysis server.
//
// Speaks the line-delimited JSON protocol of service::BatchServer (one
// request per line, one response per line, responses in request order). See
// DESIGN.md §7 for the protocol grammar and §10 for the network transport.
//
// Default mode serves stdin/stdout:
//
//   $ echo '{"id":1,"op":"verify","scenario":{"builtin":"case_study_fig3"},
//            "property":"observability","spec":{"k1":1,"k2":1}}' | ./scada_serve
//   {"id":1,"ok":true,"op":"verify","status":"done",...}
//
// With --listen (TCP) and/or --unix (Unix-domain socket) it becomes a
// multi-client network server instead: up to --max-connections concurrent
// clients share one scheduler and verdict cache. SIGINT/SIGTERM (or a
// client's shutdown op) trigger a graceful drain: stop accepting, finish
// in-flight jobs, flush every response, exit 0.
//
//   $ ./scada_serve --listen 127.0.0.1:4700 --threads 8
//
// Exit code 0 on EOF/shutdown/drain, 1 on usage errors.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "scada/service/batch_server.hpp"
#include "scada/service/net_server.hpp"
#include "scada/util/logging.hpp"
#include "scada/util/strings.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--threads N] [--cache-capacity N] [-v]\n"
      "          [--listen [host:]port] [--unix PATH] [--max-connections N]\n"
      "          [--max-line-bytes N] [--idle-timeout-ms X] [--port-file PATH]\n"
      "  Without --listen/--unix: serves line-delimited JSON analysis requests\n"
      "  on stdin, one JSON response per line on stdout.\n"
      "  With them: accepts concurrent socket clients speaking the same\n"
      "  protocol, all sharing one scheduler and verdict cache. --listen 0\n"
      "  picks an ephemeral port; --port-file writes the bound port (handy\n"
      "  for scripts). SIGINT drains gracefully.\n",
      argv0);
  return 1;
}

scada::service::NetServer* g_net_server = nullptr;

// Async-signal-safe: request_shutdown is a lone atomic store.
void on_signal(int) {
  if (g_net_server != nullptr) g_net_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  scada::service::NetServerOptions net;
  bool listen_mode = false;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    // Checked numeric parsing: malformed tokens report the flag and exit 1
    // instead of silently becoming 0 (the old atoll behaviour).
    const auto num_arg = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--threads") == 0) {
      net.server.scheduler.threads =
          static_cast<std::size_t>(scada::util::cli_long_in("--threads", num_arg(), 0, 4096));
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      net.server.scheduler.cache_capacity = static_cast<std::size_t>(
          scada::util::cli_long_in("--cache-capacity", num_arg(), 0, 100000000));
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      try {
        net.tcp = scada::service::net::parse_hostport(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
      }
      listen_mode = true;
    } else if (std::strcmp(argv[i], "--unix") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      net.unix_path = argv[++i];
      listen_mode = true;
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      net.max_connections = static_cast<std::size_t>(
          scada::util::cli_long_in("--max-connections", num_arg(), 1, 100000));
    } else if (std::strcmp(argv[i], "--max-line-bytes") == 0) {
      net.max_line_bytes = static_cast<std::size_t>(
          scada::util::cli_long_in("--max-line-bytes", num_arg(), 64, 1 << 30));
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      net.idle_timeout_ms = scada::util::cli_double("--idle-timeout-ms", num_arg());
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "-v") == 0) {
      scada::util::set_log_level(scada::util::LogLevel::Info);
    } else {
      return usage(argv[0]);
    }
  }

  if (!listen_mode) {
    scada::service::BatchServer server(net.server);
    const std::size_t served = server.serve(std::cin, std::cout);
    SCADA_LOG(Info) << "scada_serve: " << served << " request(s) served";
    return 0;
  }

  try {
    scada::service::NetServer server(net);
    server.start();
    if (!port_file.empty()) {
      if (std::FILE* f = std::fopen(port_file.c_str(), "w"); f != nullptr) {
        std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
        std::fclose(f);
      } else {
        std::fprintf(stderr, "%s: cannot write --port-file %s\n", argv[0], port_file.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "scada_serve: listening on %s:%u%s%s\n", net.tcp.host.c_str(),
                 static_cast<unsigned>(server.port()), net.unix_path.empty() ? "" : " and unix:",
                 net.unix_path.c_str());

    g_net_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    server.run();  // returns after a graceful drain
    g_net_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}
