// misusedet_registry: operator CLI over the model registry.
//
//   misusedet_registry publish  --root=DIR ARCHIVE [--note=TEXT]
//   misusedet_registry list     --root=DIR
//   misusedet_registry show     --root=DIR VERSION
//   misusedet_registry promote  --root=DIR VERSION
//   misusedet_registry rollback --root=DIR [VERSION]
//   misusedet_registry pin      --root=DIR VERSION
//   misusedet_registry unpin    --root=DIR VERSION
//   misusedet_registry gc       --root=DIR [--keep-retired=N]
//
// VERSION is "v3" or plain "3". Exit code 0 on success, 1 on any error
// (message on stderr), 2 on a flag no command reads. See README "Model
// lifecycle" for the publish -> canary -> promote -> rollback
// walkthrough.
#include <cstdio>
#include <ctime>
#include <exception>
#include <iterator>
#include <string>
#include <string_view>

#include "registry/registry.hpp"
#include "util/cli.hpp"

namespace {

using misuse::registry::ModelRegistry;
using misuse::registry::RegistryError;
using misuse::registry::VersionMetadata;
using misuse::registry::version_name;
using misuse::registry::version_state_name;

/// Every flag some command reads ("--no-json" folds into "json").
constexpr std::string_view kKnownFlags[] = {"help", "root", "note", "json", "keep-retired"};

[[noreturn]] void usage(const char* program, int status = 1) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: %s COMMAND --root=DIR [args]\n"
               "commands:\n"
               "  publish ARCHIVE [--note=TEXT]   add a detector archive as a staging version\n"
               "  list [--json]                   all versions with state and provenance\n"
               "                                  (--json: one meta.json line per version)\n"
               "  show VERSION [--json]           one version's metadata + its parent\n"
               "                                  lineage chain\n"
               "  promote VERSION                 staging->canary / canary->active\n"
               "  rollback [VERSION]              re-activate the parent (or VERSION)\n"
               "  pin VERSION / unpin VERSION     shield from / expose to gc\n"
               "  gc [--keep-retired=N]           remove old retired versions (default N=2)\n",
               program);
  std::exit(status);
}

std::uint64_t parse_version_arg(const std::string& arg) {
  auto v = misuse::registry::parse_version_name(arg);
  if (!v) v = misuse::registry::parse_version_name("v" + arg);
  if (!v) throw RegistryError("not a version: '" + arg + "' (expected v<N> or <N>)");
  return *v;
}

void print_version(const VersionMetadata& meta, std::uint64_t current, std::uint64_t canary) {
  char stamp[32] = "-";
  if (meta.created_unix > 0) {
    const std::time_t t = static_cast<std::time_t>(meta.created_unix);
    std::tm tm{};
    if (gmtime_r(&t, &tm) != nullptr) std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%MZ", &tm);
  }
  const std::string name = version_name(meta.version);
  const std::string state(version_state_name(meta.state));
  const std::string note = meta.note.empty() ? "" : "  # " + meta.note;
  std::printf("%-6s %-8s %-17s %8llu bytes  clusters=%llu vocab=%llu%s%s%s%s\n", name.c_str(),
              state.c_str(), stamp, static_cast<unsigned long long>(meta.archive_bytes),
              static_cast<unsigned long long>(meta.clusters),
              static_cast<unsigned long long>(meta.vocab_size), meta.pinned ? " [pinned]" : "",
              meta.version == current ? " [CURRENT]" : "", meta.version == canary ? " [canary]" : "",
              note.c_str());
}

int run(int argc, char** argv) {
  const misuse::CliArgs args(argc, argv);
  if (const auto unknown = args.unknown_flag(kKnownFlags)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown->c_str());
    return 2;
  }
  if (args.flag("help")) usage(argv[0], 0);
  const auto& positional = args.positional();
  if (positional.empty()) usage(argv[0]);
  const std::string& command = positional[0];
  const std::string root = args.str("root");
  if (root.empty()) {
    std::fprintf(stderr, "error: --root=DIR is required\n");
    return 1;
  }
  ModelRegistry registry(root);

  if (command == "publish") {
    if (positional.size() != 2) usage(argv[0]);
    const std::uint64_t version = registry.publish(positional[1], args.str("note"));
    std::printf("%s\n", version_name(version).c_str());
    return 0;
  }
  if (command == "list") {
    if (args.flag("json")) {
      // NDJSON: the exact meta.json bodies (render_metadata is already
      // one flat JSON line per version) — what learnd and scripts parse
      // instead of scraping the human table.
      for (const auto& meta : registry.list()) {
        std::fputs(misuse::registry::render_metadata(meta).c_str(), stdout);
      }
      return 0;
    }
    const auto current = registry.current().value_or(0);
    const auto canary = registry.canary().value_or(0);
    for (const auto& meta : registry.list()) print_version(meta, current, canary);
    return 0;
  }
  if (command == "show") {
    if (positional.size() != 2) usage(argv[0]);
    const auto version = parse_version_arg(positional[1]);
    const auto chain = registry.lineage(version);  // throws when version is missing
    if (args.flag("json")) {
      for (const auto& meta : chain) {
        std::fputs(misuse::registry::render_metadata(meta).c_str(), stdout);
      }
      return 0;
    }
    const auto current = registry.current().value_or(0);
    const auto canary = registry.canary().value_or(0);
    for (const auto& meta : chain) print_version(meta, current, canary);
    std::string lineage;
    for (const auto& meta : chain) {
      if (!lineage.empty()) lineage += " -> ";
      lineage += version_name(meta.version);
    }
    // A recorded parent past the end of the chain was gc'd (possible for
    // retired-only ancestry) — say so instead of silently truncating.
    if (chain.back().parent != 0) lineage += " -> " + version_name(chain.back().parent) + " (gone)";
    std::printf("lineage: %s\n", lineage.c_str());
    return 0;
  }
  if (command == "promote") {
    if (positional.size() != 2) usage(argv[0]);
    registry.promote(parse_version_arg(positional[1]));
    return 0;
  }
  if (command == "rollback") {
    if (positional.size() > 2) usage(argv[0]);
    if (positional.size() == 2) {
      registry.rollback_to(parse_version_arg(positional[1]));
    } else {
      registry.rollback();
    }
    std::printf("%s\n", version_name(registry.current().value_or(0)).c_str());
    return 0;
  }
  if (command == "pin" || command == "unpin") {
    if (positional.size() != 2) usage(argv[0]);
    registry.pin(parse_version_arg(positional[1]), command == "pin");
    return 0;
  }
  if (command == "gc") {
    const auto keep = static_cast<std::size_t>(args.integer("keep-retired", 2));
    for (const std::uint64_t version : registry.gc(keep)) {
      std::printf("removed %s\n", version_name(version).c_str());
    }
    return 0;
  }
  usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
