/**
 * @file
 * Merge the shard journals of a sharded sweep back into one canonical
 * journal (see core/journal_merge.hh and docs/PARALLELISM.md).
 *
 *   journal_merge --out merged.journal.jsonl shard0.jsonl shard1.jsonl ...
 *
 * The shards may be listed in any order — each stamps its own K/N in
 * its header.  On success the merged journal is byte-identical to the
 * one the unsharded sweep would have written, so re-running the bench
 * with it replays every point and emits byte-identical figure output.
 *
 * Exit status: 0 on success, 1 if the shards do not merge (each named
 * diagnostic on stderr), 2 on a bad command line.  Warnings (e.g. a
 * dropped torn tail) go to stderr without failing the merge.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/journal_merge.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --out MERGED.jsonl SHARD.jsonl [SHARD.jsonl "
                 "...]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> shard_paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--out") {
            if (i + 1 >= argc || !out_path.empty())
                return usage(argv[0]);
            out_path = argv[++i];
        } else if (arg.rfind("--out=", 0) == 0) {
            if (!out_path.empty())
                return usage(argv[0]);
            out_path = arg.substr(6);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            return usage(argv[0]);
        } else {
            shard_paths.push_back(arg);
        }
    }
    // Each misuse gets its own named diagnostic ahead of the usage
    // text: a scripted sweep whose glob expanded to nothing should read
    // "no shard journals" in its log, not a bare usage line.
    if (out_path.empty()) {
        std::fprintf(stderr, "%s: error: missing --out MERGED.jsonl\n",
                     argv[0]);
        return usage(argv[0]);
    }
    if (shard_paths.empty()) {
        std::fprintf(stderr,
                     "%s: error: no shard journals given (expected at "
                     "least one SHARD.jsonl)\n",
                     argv[0]);
        return usage(argv[0]);
    }

    const absim::core::MergeResult merge =
        absim::core::mergeJournals(shard_paths);
    for (const std::string &warning : merge.warnings)
        std::fprintf(stderr, "%s: warning: %s\n", argv[0],
                     warning.c_str());
    for (const std::string &error : merge.errors)
        std::fprintf(stderr, "%s: error: %s\n", argv[0], error.c_str());
    if (!merge.ok())
        return 1;

    if (!absim::core::writeMergedJournal(out_path, merge)) {
        std::fprintf(stderr, "%s: error: cannot write '%s'\n", argv[0],
                     out_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "%s: merged %zu shard(s), %zu record(s) -> %s\n",
                 argv[0], shard_paths.size(), merge.records.size(),
                 out_path.c_str());
    return 0;
}
