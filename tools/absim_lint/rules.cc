/**
 * @file
 * The absim_lint rule catalog: D1, D2, G1, C1, L1, R1 (see lint.hh and
 * docs/CHECKING.md for the rationale of each rule).
 *
 * All rules work on the comment/string-stripped token stream from
 * lexer.cc, so identifiers inside literals or comments never trip
 * them.  The implementations are deliberately heuristic — this is a
 * convention linter, not a compiler — but every heuristic errs toward
 * "no false positive on the real tree" and is pinned by the fixture
 * self-tests under tools/absim_lint/fixtures/.
 */

#include "rules.hh"

#include <algorithm>
#include <map>

namespace absim_lint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
ruleEnabled(const std::set<std::string> &enabled, const char *rule)
{
    return enabled.empty() || enabled.count(rule) != 0;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

/**
 * True if the identifier at @p i is in call position: followed by '('
 * and not a member access (x.time(), x->clock()) or a qualified name
 * whose qualifier is something other than std (Foo::time() is Foo's
 * business; std::time() is the libc primitive).
 */
bool
isBareCall(const std::vector<Token> &toks, std::size_t i)
{
    if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
        return false;
    if (i == 0)
        return true;
    const Token &prev = toks[i - 1];
    if (isPunct(prev, ".") || isPunct(prev, "->"))
        return false;
    if (isPunct(prev, "::"))
        return i >= 2 && isIdent(toks[i - 2], "std");
    // `Tick time(...)` declares a function named time: the identifier
    // is preceded by its return type, not by an expression.  Keywords
    // that introduce an expression are not type names.
    if (prev.kind == TokKind::Ident) {
        static const std::set<std::string> kExprKeywords = {
            "return",  "throw", "else",     "do",
            "case",    "goto",  "co_return", "co_yield",
            "co_await"};
        return kExprKeywords.count(prev.text) != 0;
    }
    if (isPunct(prev, "*") || isPunct(prev, "&") || isPunct(prev, ">"))
        return false;
    return true;
}

// ---------------------------------------------------------------- D1

/** Identifiers that are nondeterministic in any position. */
const std::set<std::string> &
d1AlwaysBanned()
{
    static const std::set<std::string> kSet = {
        "srand",          "rand_r",        "drand48",
        "lrand48",        "mrand48",       "random_device",
        "mt19937",        "mt19937_64",    "minstd_rand",
        "minstd_rand0",   "default_random_engine",
        "system_clock",   "steady_clock",  "high_resolution_clock",
        "gettimeofday",   "clock_gettime", "localtime",
        "gmtime",         "timespec_get",
    };
    return kSet;
}

/** Identifiers banned only in call position (common English words). */
const std::set<std::string> &
d1CallBanned()
{
    static const std::set<std::string> kSet = {"rand", "random", "clock",
                                              "time"};
    return kSet;
}

void
ruleD1(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (!startsWith(unit.path, "src/"))
        return;
    for (const AllowlistEntry &entry : allowlist())
        if (std::string(entry.rule) == "D1" && unit.path == entry.file)
            return;

    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        const std::string &name = toks[i].text;
        const bool always = d1AlwaysBanned().count(name) != 0;
        const bool call =
            d1CallBanned().count(name) != 0 && isBareCall(toks, i);
        if (!always && !call)
            continue;
        // `steady_clock` etc. as a member access (profile.steady_clock?)
        // does not exist in this tree; keep the always-set unconditional.
        out.push_back(Diagnostic{
            "D1", unit.path, toks[i].line,
            "nondeterminism primitive '" + name +
                "': simulations must be bit-reproducible; use the "
                "run's seeded sim::Rng or simulated time instead "
                "(wall-clock budgets belong in the D1 allowlist)"});
    }
}

// ---------------------------------------------------------------- D2

/** Files whose bytes end up in journals / figure JSON / CSV (or, for
 *  trace_replay, in trace files and replayed profiles). */
bool
d2OutputPath(const std::string &path)
{
    return startsWith(path, "src/core/") ||
           startsWith(path, "src/serve/") ||
           startsWith(path, "src/stats/") ||
           startsWith(path, "src/trace_replay/") ||
           startsWith(path, "bench/");
}

/**
 * Find `unordered_map<K, ...>` / `unordered_set<K>` template-ids whose
 * key type K mentions a pointer.  Returns the token index one past the
 * template-id's closing '>' via @p end, and the declared variable name
 * (if the next token is an identifier) via @p varName.
 */
bool
pointerKeyedAt(const std::vector<Token> &toks, std::size_t i,
               std::size_t &end, std::string &varName)
{
    if (toks[i].kind != TokKind::Ident ||
        (toks[i].text != "unordered_map" &&
         toks[i].text != "unordered_set"))
        return false;
    if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "<"))
        return false;

    bool pointerKey = false;
    int depth = 1;
    bool inKey = true;
    std::size_t j = i + 2;
    for (; j < toks.size() && depth > 0; ++j) {
        const Token &t = toks[j];
        if (isPunct(t, "<"))
            ++depth;
        else if (isPunct(t, ">"))
            --depth;
        else if (isPunct(t, ";") || isPunct(t, "{"))
            return false; // Malformed / not a template-id.
        else if (isPunct(t, ",") && depth == 1)
            inKey = false;
        else if (inKey && isPunct(t, "*"))
            pointerKey = true;
    }
    if (!pointerKey)
        return false;
    end = j;
    varName.clear();
    if (j < toks.size() && toks[j].kind == TokKind::Ident)
        varName = toks[j].text;
    return true;
}

void
ruleD2(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (!d2OutputPath(unit.path))
        return;

    const auto &toks = unit.lex.tokens;
    std::set<std::string> pointerKeyedVars;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        std::size_t end = 0;
        std::string var;
        if (!pointerKeyedAt(toks, i, end, var))
            continue;
        if (!var.empty())
            pointerKeyedVars.insert(var);
        out.push_back(Diagnostic{
            "D2", unit.path, toks[i].line,
            "pointer-keyed " + toks[i].text +
                " in a byte-emitting file: its iteration order varies "
                "run to run and would poison journal/JSON/CSV "
                "byte-determinism; key by a stable id or use std::map"});
    }

    // Range-for over a variable declared above with a pointer key.
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "("))
            continue;
        int depth = 1;
        std::size_t colon = 0;
        for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")"))
                --depth;
            else if (isPunct(toks[j], ";") && depth == 1)
                break; // Classic for-loop.
            else if (isPunct(toks[j], ":") && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        int d = 1;
        for (std::size_t j = colon + 1; j < toks.size() && d > 0; ++j) {
            if (isPunct(toks[j], "("))
                ++d;
            else if (isPunct(toks[j], ")")) {
                if (--d == 0)
                    break;
            } else if (toks[j].kind == TokKind::Ident &&
                       pointerKeyedVars.count(toks[j].text) != 0) {
                out.push_back(Diagnostic{
                    "D2", unit.path, toks[j].line,
                    "iteration over pointer-keyed container '" +
                        toks[j].text +
                        "' in a byte-emitting file: the visit order is "
                        "address-dependent and nondeterministic"});
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- G1

const std::set<std::string> &
g1Banned()
{
    static const std::set<std::string> kSet = {
        "getenv",  "secure_getenv", "atoi",    "atol",   "atoll",
        "atof",    "strtol",        "strtoul", "strtoll", "strtoull",
        "strtod",  "strtof",        "strtold", "sscanf",
    };
    return kSet;
}

void
ruleG1(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (unit.path == "src/core/env.hh" || unit.path == "src/core/env.cc")
        return; // The one sanctioned funnel.

    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            g1Banned().count(toks[i].text) == 0 || !isBareCall(toks, i))
            continue;
        out.push_back(Diagnostic{
            "G1", unit.path, toks[i].line,
            "bare '" + toks[i].text +
                "': route environment and number parsing through "
                "core/env (envUint/envString/parseUint/parseDouble) or "
                "a core/run_settings row so malformed input fails "
                "loudly with a named diagnostic instead of silently "
                "becoming 0"});
    }
}

// ---------------------------------------------------------------- C1

void
ruleC1(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (!startsWith(unit.path, "src/") ||
        startsWith(unit.path, "src/check/"))
        return;

    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "assert") || !isBareCall(toks, i))
            continue;
        out.push_back(Diagnostic{
            "C1", unit.path, toks[i].line,
            "bare assert(): use ABSIM_CHECK / ABSIM_DCHECK (src/check) "
            "so the failure carries context, stays on in release "
            "builds, and degrades to a structured RunError under "
            "runOneSafe"});
    }
}

// ---------------------------------------------------------------- L1

/** Grandfathered file-level exceptions to the directory DAG. */
struct LayerException
{
    const char *file;
    const char *dir; ///< Extra directory this file may include.
};

const std::vector<LayerException> &
layerExceptions()
{
    // The coherence checker speaks block addresses and cache state, so
    // these two files (and only these) may reach up into mem/; the
    // macro layer check/check.hh stays dependency-free.
    static const std::vector<LayerException> kExceptions = {
        {"src/check/coherence.hh", "mem"},
        {"src/check/coherence.cc", "mem"},
    };
    return kExceptions;
}

} // namespace

/**
 * The include-layering DAG over src/ directories, lowest layer first.
 * A file in directory d may include its own directory plus exactly
 * the listed rows.  The order is the proof of acyclicity: every
 * allowed edge points at an earlier entry (asserted by the self-tests).
 */
const std::vector<Layer> &
layerTable()
{
    static const std::vector<Layer> kTable = {
        {"json", {}},
        {"fault", {}},
        {"check", {}}, // + the coherence exception below.
        {"sim", {"check", "fault"}},
        {"net", {"check", "sim"}},
        {"mem", {"check", "net", "sim"}},
        {"logp", {"check", "mem", "net", "sim"}},
        {"machines", {"check", "logp", "mem", "net", "sim"}},
        {"stats", {"check", "machines", "sim"}},
        {"runtime",
         {"check", "fault", "logp", "machines", "mem", "net", "sim",
          "stats"}},
        {"msg", {"check", "machines", "mem", "net", "runtime", "sim"}},
        {"apps", {"check", "msg", "runtime", "sim", "stats"}},
        {"trace_replay",
         {"apps", "check", "fault", "json", "logp", "machines", "mem",
          "net", "runtime", "sim", "stats"}},
        {"core",
         {"apps", "check", "fault", "json", "logp", "machines", "mem",
          "msg", "net", "runtime", "sim", "stats", "trace_replay"}},
        {"serve",
         {"apps", "check", "core", "fault", "json", "logp", "machines",
          "mem", "msg", "net", "runtime", "sim", "stats", "trace_replay"}},
    };
    return kTable;
}

namespace {

void
ruleL1(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (!startsWith(unit.path, "src/"))
        return;
    const std::size_t dirEnd = unit.path.find('/', 4);
    if (dirEnd == std::string::npos)
        return;
    const std::string fromDir = unit.path.substr(4, dirEnd - 4);

    const Layer *fromLayer = nullptr;
    for (const Layer &layer : layerTable())
        if (fromDir == layer.dir)
            fromLayer = &layer;
    if (fromLayer == nullptr)
        return; // Unknown directory: not layered (yet).

    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isPunct(toks[i], "#") || !isIdent(toks[i + 1], "include") ||
            toks[i + 2].kind != TokKind::String)
            continue;
        const std::string &target = toks[i + 2].text;
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos)
            continue; // Same-directory or local include.
        const std::string toDir = target.substr(0, slash);
        if (toDir == fromDir)
            continue;

        bool known = false;
        for (const Layer &layer : layerTable())
            known = known || toDir == layer.dir;
        if (!known)
            continue; // Not one of the layered src/ directories.

        bool allowed = false;
        for (const char *dir : fromLayer->allowed)
            allowed = allowed || toDir == dir;
        for (const LayerException &ex : layerExceptions())
            allowed = allowed ||
                      (unit.path == ex.file && toDir == ex.dir);
        if (allowed)
            continue;

        out.push_back(Diagnostic{
            "L1", unit.path, toks[i + 2].line,
            "layering violation: " + fromDir + "/ may not include \"" +
                target + "\" (" + toDir +
                "/ is not below it in the include DAG; see "
                "docs/CHECKING.md and the table in "
                "tools/absim_lint/rules.cc)"});
    }
}

// ---------------------------------------------------------------- R1

/** Type names whose values must not be dropped on the floor. */
const std::set<std::string> &
resultTypeNames()
{
    static const std::set<std::string> kSet = {"Result", "RunResult",
                                              "MergeResult", "RunError"};
    return kSet;
}

bool
isHeader(const std::string &path)
{
    return path.size() > 3 &&
           (path.compare(path.size() - 3, 3, ".hh") == 0 ||
            path.compare(path.size() - 4, 4, ".hpp") == 0);
}

/** Tokens that terminate a backwards scan for the declaration start. */
bool
isDeclBoundary(const Token &t)
{
    return isPunct(t, ";") || isPunct(t, "{") || isPunct(t, "}") ||
           isPunct(t, "#");
}

/**
 * Find header declarations of functions returning a Result-family
 * type: an identifier f followed by '(', where the token span back to
 * the previous declaration boundary names a Result type, contains no
 * expression markers (=, return, ., ->), and f is not itself the type
 * (that would be a constructor).  Reports whether [[nodiscard]]
 * appears in the span and f's name.
 */
template <typename Callback>
void
scanResultDecls(const FileUnit &unit, Callback &&callback)
{
    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 1; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident || i + 1 >= toks.size() ||
            !isPunct(toks[i + 1], "("))
            continue;
        if (resultTypeNames().count(toks[i].text) != 0)
            continue; // Constructor of the type itself.

        bool sawResultType = false;
        bool sawNodiscard = false;
        bool expression = false;
        for (std::size_t j = i; j-- > 0;) {
            const Token &t = toks[j];
            if (isDeclBoundary(t))
                break;
            if (t.kind == TokKind::Ident) {
                if (resultTypeNames().count(t.text) != 0)
                    sawResultType = true;
                else if (t.text == "nodiscard")
                    sawNodiscard = true;
                else if (t.text == "return" || t.text == "new" ||
                         t.text == "throw" || t.text == "co_return")
                    expression = true;
            } else if (isPunct(t, "=") || isPunct(t, ".") ||
                       isPunct(t, "->") || isPunct(t, "(")) {
                expression = true;
            }
        }
        if (sawResultType && !expression)
            callback(toks[i].text, toks[i].line, sawNodiscard);
    }
}

void
collectR1Names(const FileUnit &unit, std::set<std::string> &names)
{
    if (!isHeader(unit.path))
        return;
    scanResultDecls(unit, [&](const std::string &name, int, bool) {
        names.insert(name);
    });
}

void
ruleR1Decl(const FileUnit &unit, std::vector<Diagnostic> &out)
{
    if (!startsWith(unit.path, "src/") || !isHeader(unit.path))
        return;
    scanResultDecls(unit,
                    [&](const std::string &name, int line, bool nodiscard) {
                        if (nodiscard)
                            return;
                        out.push_back(Diagnostic{
                            "R1", unit.path, line,
                            "'" + name +
                                "' returns a Result/RunError type but is "
                                "not [[nodiscard]]: a silently dropped "
                                "error is how sweeps lose failed points"});
                    });
}

void
ruleR1Use(const FileUnit &unit, const std::set<std::string> &names,
          std::vector<Diagnostic> &out)
{
    const auto &toks = unit.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            names.count(toks[i].text) == 0 || i + 1 >= toks.size() ||
            !isPunct(toks[i + 1], "("))
            continue;

        // Walk back over `ident ::` qualifiers to the statement start.
        std::size_t start = i;
        while (start >= 2 && isPunct(toks[start - 1], "::") &&
               toks[start - 2].kind == TokKind::Ident)
            start -= 2;
        if (start != 0 && !isDeclBoundary(toks[start - 1]))
            continue; // Value is consumed (assignment, argument, ...).

        // The call must be the whole statement: `... );` at depth 0.
        int depth = 1;
        std::size_t j = i + 2;
        for (; j < toks.size() && depth > 0; ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")"))
                --depth;
        }
        if (depth != 0 || j >= toks.size() || !isPunct(toks[j], ";"))
            continue;

        out.push_back(Diagnostic{
            "R1", unit.path, toks[i].line,
            "discarded result of '" + toks[i].text +
                "': the call returns a Result/RunError that must be "
                "checked (or explicitly voided with a suppression "
                "naming the reason)"});
    }
}

} // namespace

const std::set<std::string> &
seedResultNames()
{
    static const std::set<std::string> kSeeds = {
        "runOneSafe", "runManySafe", "mergeJournals"};
    return kSeeds;
}

void
collectResultNames(const FileUnit &unit, std::set<std::string> &names)
{
    collectR1Names(unit, names);
}

void
runRules(const FileUnit &unit, const std::set<std::string> &resultNames,
         const std::set<std::string> &enabled,
         std::vector<Diagnostic> &out)
{
    if (ruleEnabled(enabled, "D1"))
        ruleD1(unit, out);
    if (ruleEnabled(enabled, "D2"))
        ruleD2(unit, out);
    if (ruleEnabled(enabled, "G1"))
        ruleG1(unit, out);
    if (ruleEnabled(enabled, "C1"))
        ruleC1(unit, out);
    if (ruleEnabled(enabled, "L1"))
        ruleL1(unit, out);
    if (ruleEnabled(enabled, "R1")) {
        ruleR1Decl(unit, out);
        ruleR1Use(unit, resultNames, out);
    }
}

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = {
        {"D1", "no nondeterminism primitives in src/ (seeded sim::Rng "
               "and simulated time only; wall-clock budget files are "
               "allowlisted)"},
        {"D2", "no pointer-keyed unordered_map/unordered_set in files "
               "that emit journal/JSON/CSV bytes"},
        {"G1", "no bare getenv/atoi/strto*/sscanf outside core/env"},
        {"C1", "no bare assert() outside src/check (use ABSIM_CHECK)"},
        {"L1", "src/ include edges must follow the layering DAG"},
        {"R1", "Result/RunError-returning APIs are [[nodiscard]] and "
               "call sites may not discard them"},
        {"SUP", "absim-lint suppression comments must be well-formed: "
                "// absim-lint: <rule> ok(<reason>)"},
    };
    return kCatalog;
}

const std::vector<AllowlistEntry> &
allowlist()
{
    static const std::vector<AllowlistEntry> kAllowlist = {
        {"D1", "src/sim/event_queue.hh",
         "watchdog wall-clock budget: RunBudget.maxWallSeconds needs a "
         "monotonic host clock; never feeds simulated time or output "
         "bytes"},
        {"D1", "src/sim/event_queue.cc",
         "watchdog wall-clock budget deadline checks (same contract as "
         "event_queue.hh)"},
        // D1 scans src/ only, so this entry is documentary: it records
        // that the bench harness timer is sanctioned, should D1's scope
        // ever widen.
        {"D1", "bench/bench_common.hh",
         "sanctioned bench timer: wallNow() measures host performance "
         "of the simulator itself; results go to BENCH_*.json, never "
         "into figure bytes"},
    };
    return kAllowlist;
}

} // namespace absim_lint
