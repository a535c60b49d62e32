/**
 * @file
 * absim_lint driver: file collection, suppression parsing, diagnostic
 * filtering and the human/JSON encoders.  The rules themselves live in
 * rules.cc.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "json/json.hh"
#include "rules.hh"

namespace absim_lint {

namespace fs = std::filesystem;

namespace {

/** A parsed, well-formed suppression: @p rule is silenced on @p line. */
struct Suppression
{
    std::string rule;
    int line = 0;
};

std::string
trim(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

bool
knownSuppressibleRule(const std::string &id)
{
    for (const RuleInfo &info : ruleCatalog())
        if (id == info.id)
            return id != "SUP"; // SUP itself cannot be suppressed.
    return false;
}

/**
 * Parse every `absim-lint:` marker in @p unit's comments.  Well-formed
 * ones land in @p out; anything else (bad grammar, unknown rule, empty
 * reason) becomes a SUP diagnostic — a suppression that silently fails
 * to parse would un-suppress nothing and hide its own typo.
 */
void
parseSuppressions(const FileUnit &unit, std::vector<Suppression> &out,
                  std::vector<Diagnostic> &diagnostics)
{
    static const std::string kMarker = "absim-lint";

    for (const Comment &comment : unit.lex.comments) {
        const std::size_t at = comment.text.find(kMarker);
        if (at == std::string::npos)
            continue;

        const int commentLines = static_cast<int>(
            std::count(comment.text.begin(), comment.text.end(), '\n'));
        const int target =
            comment.ownLine ? comment.line + commentLines + 1
                            : comment.line;

        auto malformed = [&](const std::string &why) {
            diagnostics.push_back(Diagnostic{
                "SUP", unit.path, comment.line,
                "malformed absim-lint suppression (" + why +
                    "); expected `absim-lint: <rule> ok(<reason>)` "
                    "with a rule from --list-rules and a non-empty "
                    "reason"});
        };

        std::string rest = comment.text.substr(at + kMarker.size());
        if (rest.empty() || rest[0] != ':') {
            malformed("missing ':' after absim-lint");
            continue;
        }
        rest = trim(rest.substr(1));

        const std::size_t space = rest.find_first_of(" \t");
        if (space == std::string::npos) {
            malformed("missing ok(<reason>) clause");
            continue;
        }
        const std::string rule = rest.substr(0, space);
        if (!knownSuppressibleRule(rule)) {
            malformed("unknown rule '" + rule + "'");
            continue;
        }

        const std::string clause = trim(rest.substr(space));
        const std::size_t close = clause.rfind(')');
        if (clause.rfind("ok(", 0) != 0 || close == std::string::npos ||
            close < 3) {
            malformed("missing ok(<reason>) clause");
            continue;
        }
        if (!trim(clause.substr(close + 1)).empty()) {
            malformed("trailing text after ok(...)");
            continue;
        }
        const std::string reason = trim(clause.substr(3, close - 3));
        if (reason.empty()) {
            malformed("empty reason");
            continue;
        }

        out.push_back(Suppression{rule, target});
    }
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
}

/** Lint one lexed unit (rules + suppressions) into @p diagnostics. */
void
lintUnit(const FileUnit &unit, const std::set<std::string> &resultNames,
         const std::set<std::string> &enabled,
         std::vector<Diagnostic> &diagnostics)
{
    std::vector<Diagnostic> raw;
    runRules(unit, resultNames, enabled, raw);

    std::vector<Suppression> suppressions;
    parseSuppressions(unit, suppressions, diagnostics);

    for (Diagnostic &diagnostic : raw) {
        const bool suppressed = std::any_of(
            suppressions.begin(), suppressions.end(),
            [&](const Suppression &s) {
                return s.rule == diagnostic.rule &&
                       s.line == diagnostic.line;
            });
        if (!suppressed)
            diagnostics.push_back(std::move(diagnostic));
    }
}

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".cxx" || ext == ".hxx" ||
           ext == ".h";
}

} // namespace

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &source)
{
    FileUnit unit{path, lex(source)};

    std::set<std::string> names = seedResultNames();
    collectResultNames(unit, names);

    std::vector<Diagnostic> diagnostics;
    lintUnit(unit, names, /*enabled=*/{}, diagnostics);
    sortDiagnostics(diagnostics);
    return diagnostics;
}

LintResult
runLint(const LintOptions &options)
{
    LintResult result;
    const fs::path root = options.root;

    // Collect the file list, sorted for deterministic output.
    std::vector<std::string> files;
    for (const std::string &arg : options.paths) {
        const fs::path path = root / arg;
        std::error_code ec;
        if (fs::is_directory(path, ec)) {
            for (auto it = fs::recursive_directory_iterator(path, ec);
                 it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                if (ec)
                    break;
                if (it->path().filename().string().rfind(".", 0) == 0) {
                    if (it->is_directory())
                        it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() &&
                    lintableExtension(it->path()))
                    files.push_back(
                        fs::relative(it->path(), root).generic_string());
            }
        } else if (fs::is_regular_file(path, ec)) {
            files.push_back(fs::relative(path, root).generic_string());
        } else {
            result.errors.push_back("cannot read '" + path.string() +
                                    "'");
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Lex everything up front: rule R1's discarded-call pass needs the
    // full set of Result-returning names before any file is judged.
    std::vector<FileUnit> units;
    units.reserve(files.size());
    for (const std::string &file : files) {
        std::ifstream in(root / file, std::ios::binary);
        if (!in) {
            result.errors.push_back("cannot read '" + file + "'");
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        units.push_back(FileUnit{file, lex(text.str())});
    }

    std::set<std::string> names = seedResultNames();
    for (const FileUnit &unit : units)
        collectResultNames(unit, names);

    for (const FileUnit &unit : units)
        lintUnit(unit, names, options.rules, result.diagnostics);

    result.filesScanned = static_cast<int>(units.size());
    sortDiagnostics(result.diagnostics);
    return result;
}

std::string
encodeJson(const LintResult &result)
{
    std::ostringstream out;
    out << "{\"absim_lint\":1,\"files_scanned\":" << result.filesScanned
        << ",\"count\":" << result.diagnostics.size()
        << ",\"violations\":[";
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        const Diagnostic &d = result.diagnostics[i];
        out << (i == 0 ? "" : ",") << "\n{\"file\":\""
            << absim::json::jsonEscape(d.file) << "\",\"line\":" << d.line
            << ",\"rule\":\"" << absim::json::jsonEscape(d.rule)
            << "\",\"message\":\"" << absim::json::jsonEscape(d.message)
            << "\"}";
    }
    out << "]}\n";
    return out.str();
}

bool
decodeJson(const std::string &json, LintResult &out)
{
    namespace js = absim::json;
    out = LintResult{};
    js::Value doc;
    std::uint64_t version = 0;
    std::uint64_t filesScanned = 0;
    std::uint64_t count = 0;
    if (!js::parse(json, doc) || !js::getUint(doc, "absim_lint", version) ||
        version != 1 || !js::getUint(doc, "files_scanned", filesScanned) ||
        filesScanned > INT_MAX || !js::getUint(doc, "count", count))
        return false;
    out.filesScanned = static_cast<int>(filesScanned);

    const js::Value *violations = doc.find("violations");
    if (violations == nullptr || violations->type != js::Type::Array ||
        count != violations->items.size())
        return false;
    for (const js::Value &object : violations->items) {
        Diagnostic d;
        std::uint64_t line = 0;
        if (!js::getString(object, "file", d.file) ||
            !js::getUint(object, "line", line) || line > INT_MAX ||
            !js::getString(object, "rule", d.rule) ||
            !js::getString(object, "message", d.message))
            return false;
        d.line = static_cast<int>(line);
        out.diagnostics.push_back(std::move(d));
    }
    return true;
}

std::string
formatText(const LintResult &result)
{
    std::ostringstream out;
    for (const Diagnostic &d : result.diagnostics)
        out << d.file << ":" << d.line << ": [" << d.rule << "] "
            << d.message << "\n";
    for (const std::string &error : result.errors)
        out << "error: " << error << "\n";
    if (result.diagnostics.empty() && result.errors.empty())
        out << "absim_lint: clean (" << result.filesScanned
            << " files)\n";
    else
        out << "absim_lint: " << result.diagnostics.size()
            << " violation(s) in " << result.filesScanned << " files\n";
    return out.str();
}

} // namespace absim_lint
