// csar_shell: a scriptable command shell driving a simulated CSAR cluster —
// poke at the system interactively or pipe a script in.
//
//   $ ./examples/csar_shell [nservers] [scheme]
//   csar> create data 65536
//   csar> write data 0 1048576
//   csar> fail 2
//   csar> read data 0 1048576        # transparently degraded
//   csar> wipe 2 ; recover 2 ; rebuild data 2
//   csar> scrub data ; stat data ; diag ; quit
//
// Every command reports the simulated time it consumed. Written data uses
// deterministic patterns, and reads are verified against a local reference
// model, so any redundancy bug surfaces as "CORRUPT".
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/units.hpp"
#include "raid/diagnostics.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "workloads/harness.hpp"

using namespace csar;

namespace {

struct ShellFile {
  pvfs::OpenFile handle;
  std::vector<std::byte> reference;  // expected contents

  void remember(std::uint64_t off, const Buffer& data) {
    if (reference.size() < off + data.size()) {
      reference.resize(off + data.size(), std::byte{0});
    }
    auto src = data.bytes();
    std::copy(src.begin(), src.end(),
              reference.begin() + static_cast<std::ptrdiff_t>(off));
  }

  Buffer expected(std::uint64_t off, std::uint64_t len) const {
    Buffer b = Buffer::real(len);
    const std::uint64_t avail =
        off < reference.size()
            ? std::min<std::uint64_t>(len, reference.size() - off)
            : 0;
    if (avail > 0) {
      std::copy(reference.begin() + static_cast<std::ptrdiff_t>(off),
                reference.begin() + static_cast<std::ptrdiff_t>(off + avail),
                b.mutable_bytes().begin());
    }
    return b;
  }
};

void help() {
  std::puts(
      "commands:\n"
      "  create <name> [stripe_unit]      make a file\n"
      "  write <name> <off> <len> [seed]  write patterned data\n"
      "  read <name> <off> <len>          read + verify (failover-aware)\n"
      "  fail <server> | recover <server> | wipe <server>\n"
      "  rebuild <name> <server>          reconstruct a replaced server\n"
      "  scrub <name>                     audit redundancy consistency\n"
      "  repair <name>                    audit and rewrite redundancy\n"
      "  compact <name>                   run the overflow cleaner (Hybrid)\n"
      "  stat <name>                      storage breakdown\n"
      "  diag                             per-server hardware counters\n"
      "  time                             current simulated time\n"
      "  help | quit");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t nservers =
      argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10))
               : 5;
  const raid::Scheme scheme =
      argc > 2 ? raid::parse_scheme(argv[2]).value_or(raid::Scheme::hybrid)
               : raid::Scheme::hybrid;

  raid::RigParams params;
  params.nservers = nservers;
  params.scheme = scheme;
  raid::Rig rig(params);
  std::map<std::string, ShellFile> files;
  std::uint64_t seed_counter = 1;

  std::printf("csar shell: %u I/O servers, %s scheme (type 'help')\n",
              nservers, raid::scheme_name(scheme).c_str());

  std::string line;
  while (std::printf("csar> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    const sim::Time before = rig.sim.now();

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      help();
      continue;
    }
    if (cmd == "time") {
      std::printf("t = %.6f s, %llu events\n", sim::to_seconds(rig.sim.now()),
                  static_cast<unsigned long long>(rig.sim.events_executed()));
      continue;
    }
    if (cmd == "diag") {
      raid::rig_stats_table(rig).print();
      continue;
    }
    if (cmd == "fail" || cmd == "recover" || cmd == "wipe") {
      std::uint32_t s = 0;
      if (!(in >> s) || s >= nservers) {
        std::puts("bad server index");
        continue;
      }
      if (cmd == "fail") rig.server(s).fail();
      if (cmd == "recover") rig.server(s).recover();
      if (cmd == "wipe") rig.server(s).wipe();
      std::printf("server %u %sed\n", s, cmd.c_str());
      continue;
    }

    std::string name;
    if (!(in >> name)) {
      std::puts("missing file name (try 'help')");
      continue;
    }

    if (cmd == "create") {
      std::uint32_t su = 64 * KiB;
      in >> su;
      auto f = wl::run_on(rig, rig.client_fs().create(name, rig.layout(su)));
      if (!f.ok()) {
        std::printf("create failed: %s\n", f.error().to_string().c_str());
        continue;
      }
      files[name] = ShellFile{*f, {}};
      std::printf("created '%s' (handle %llu, su %s)\n", name.c_str(),
                  static_cast<unsigned long long>(f->handle),
                  format_bytes(su).c_str());
      continue;
    }

    auto it = files.find(name);
    if (it == files.end()) {
      std::printf("unknown file '%s'\n", name.c_str());
      continue;
    }
    ShellFile& file = it->second;

    if (cmd == "write") {
      std::uint64_t off = 0;
      std::uint64_t len = 0;
      std::uint64_t seed = seed_counter++;
      if (!(in >> off >> len)) {
        std::puts("usage: write <name> <off> <len> [seed]");
        continue;
      }
      in >> seed;
      Buffer data = Buffer::pattern(len, seed);
      file.remember(off, data);
      auto wr = wl::run_on(
          rig, rig.client_fs().write(file.handle, off, std::move(data)));
      std::printf("%s (%.3f ms simulated)\n",
                  wr.ok() ? "ok" : wr.error().to_string().c_str(),
                  sim::to_seconds(rig.sim.now() - before) * 1e3);
    } else if (cmd == "read") {
      std::uint64_t off = 0;
      std::uint64_t len = 0;
      if (!(in >> off >> len)) {
        std::puts("usage: read <name> <off> <len>");
        continue;
      }
      auto rd = wl::run_on(
          rig, rig.client_fs().read_resilient(file.handle, off, len));
      if (!rd.ok()) {
        std::printf("read failed: %s\n", rd.error().to_string().c_str());
        continue;
      }
      const bool match = *rd == file.expected(off, len);
      std::printf("%s %s (%.3f ms simulated)\n", format_bytes(len).c_str(),
                  match ? "verified" : "CORRUPT",
                  sim::to_seconds(rig.sim.now() - before) * 1e3);
    } else if (cmd == "rebuild") {
      std::uint32_t s = 0;
      if (!(in >> s) || s >= nservers) {
        std::puts("usage: rebuild <name> <server>");
        continue;
      }
      raid::Recovery rec = rig.recovery();
      auto rb = wl::run_on(
          rig, rec.rebuild_server(file.handle, s, file.reference.size()));
      std::printf("%s (%.3f ms simulated)\n",
                  rb.ok() ? "rebuilt" : rb.error().to_string().c_str(),
                  sim::to_seconds(rig.sim.now() - before) * 1e3);
    } else if (cmd == "scrub" || cmd == "repair") {
      raid::Scrubber scrub(rig.client(), rig.policy());
      auto report = wl::run_on(
          rig, cmd == "scrub"
                   ? scrub.verify(file.handle, file.reference.size())
                   : scrub.repair(file.handle, file.reference.size()));
      if (!report.ok()) {
        std::printf("scrub failed: %s\n",
                    report.error().to_string().c_str());
        continue;
      }
      std::printf(
          "groups=%llu parity-bad=%llu overflow-bad=%llu repaired=%llu "
          "-> %s\n",
          static_cast<unsigned long long>(report->groups_checked),
          static_cast<unsigned long long>(report->parity_mismatches),
          static_cast<unsigned long long>(report->overflow_mismatches),
          static_cast<unsigned long long>(report->repaired),
          report->clean() ? "clean" : "INCONSISTENT");
    } else if (cmd == "compact") {
      auto rc = wl::run_on(
          rig, rig.client_fs().compact(file.handle, file.reference.size()));
      std::printf("%s (%.3f ms simulated)\n",
                  rc.ok() ? "compacted" : rc.error().to_string().c_str(),
                  sim::to_seconds(rig.sim.now() - before) * 1e3);
    } else if (cmd == "stat") {
      auto usage = wl::run_on(rig, rig.client_fs().storage(file.handle));
      std::printf("data=%s parity/mirror=%s overflow=%s total=%s\n",
                  format_bytes(usage.data_bytes).c_str(),
                  format_bytes(usage.red_bytes).c_str(),
                  format_bytes(usage.overflow_bytes).c_str(),
                  format_bytes(usage.data_bytes + usage.red_bytes +
                               usage.overflow_bytes)
                      .c_str());
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}
