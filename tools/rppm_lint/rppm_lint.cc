/**
 * @file
 * rppm_lint — the in-tree determinism-invariant linter.
 *
 * The compiler (and clang's -Wthread-safety) can prove lock discipline;
 * it cannot see the project rules that keep every fast path bit-identical
 * to its reference implementation. This tool checks those rules at the
 * token level, file by file, and runs as a tier-1 CTest so violations
 * fail the build everywhere, not only on exercised code paths.
 *
 * Rules (ids in brackets; see README "Static analysis & invariants"):
 *
 *  [unordered-iter]  No iteration over std::unordered_map/unordered_set
 *                    in result-affecting directories (src/rppm,
 *                    src/profile, src/statstack, src/sim, src/simcore).
 *                    Hash-table iteration order is
 *                    implementation-defined; anything that folds it into
 *                    a result breaks bit-identity across libstdc++
 *                    versions. Keyed lookups are fine. Waive a provably
 *                    order-independent loop with
 *                    // rppm-lint: ordered-ok(reason).
 *
 *  [rng]             No rand()/srand/std::random_device/time(/getenv/
 *                    gettimeofday/clock_gettime outside src/workload
 *                    (synthesis owns its deterministic seeding) and
 *                    src/common/rng.*. Hidden entropy, wall-clock or
 *                    environment reads make profiles and predictions
 *                    irreproducible. Waive a result-neutral read with
 *                    // rppm-lint: rng-ok(reason).
 *
 *  [float-reduce]    No compound (+=, -=, *=) accumulation into a float
 *                    or double declared outside the loop body inside a
 *                    ParallelExecutor::forEach lambda. Float addition is
 *                    not associative, so a racy or scheduling-ordered
 *                    reduction silently changes results with the worker
 *                    count. Reduce into per-index slots and fold
 *                    sequentially, or waive a provably ordered reduction
 *                    with // rppm-lint: deterministic-reduce(reason).
 *
 *  [include-guard]   Every header carries #pragma once or a classic
 *                    #ifndef/#define guard near the top.
 *
 *  [using-namespace] No using-namespace directives in headers.
 *
 *  [aos-trace]       No WorkloadTrace or ThreadTrace in src/ outside
 *                    src/trace/ and src/workload/workload.{hh,cc}.
 *                    Every engine reads the one columnar trace; the AoS
 *                    record view exists for tests that assert on
 *                    individual records and must not creep back onto
 *                    the hot path. Not waivable.
 *
 *  [waiver]          Every rppm-lint waiver must use a known tag and
 *                    carry a non-empty reason:
 *                    // rppm-lint: <tag>(<why this is safe>).
 *
 * Modes:
 *   rppm_lint --root <dir>        lint the tree under <dir>
 *   rppm_lint --self-test <dir>   fixture mode: *.fail.* files must
 *                                 produce >= 1 finding of the rule named
 *                                 by their filename prefix, *.pass.*
 *                                 files must produce none
 *   rppm_lint <file>...           lint individual files
 *
 * Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage/IO.
 */

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding
{
    std::string file;
    size_t line = 0; // 1-based
    std::string rule;
    std::string message;
};

/** One source line split into code and comment halves. */
struct Line
{
    std::string code;    ///< comments and literal contents blanked out
    std::string comment; ///< text of any comment on the line
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Split file text into per-line code/comment parts. String and char
 * literal contents are blanked in `code` (delimiters kept) so tokens
 * inside literals never match a rule; comment text is collected in
 * `comment` so waivers can be parsed from it.
 */
std::vector<Line>
splitLines(const std::string &text)
{
    std::vector<Line> lines(1);
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    } st = St::Code;
    std::string rawDelim; // raw-string closing delimiter ")delim"

    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::LineComment)
                st = St::Code;
            lines.emplace_back();
            continue;
        }
        Line &cur = lines.back();
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || !isIdentChar(text[i - 1]))) {
                // R"delim( ... )delim"
                size_t p = i + 2;
                std::string delim;
                while (p < text.size() && text[p] != '(')
                    delim.push_back(text[p++]);
                rawDelim = ")" + delim + "\"";
                cur.code += "R\"\"";
                i = p; // at '('; contents skipped by RawString state
                st = St::RawString;
            } else if (c == '"') {
                cur.code.push_back(c);
                st = St::String;
            } else if (c == '\'') {
                cur.code.push_back(c);
                st = St::Char;
            } else {
                cur.code.push_back(c);
            }
            break;
        case St::LineComment:
            cur.comment.push_back(c);
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                st = St::Code;
                ++i;
            } else {
                cur.comment.push_back(c);
            }
            break;
        case St::String:
            if (c == '\\')
                ++i;
            else if (c == '"') {
                cur.code.push_back(c);
                st = St::Code;
            }
            break;
        case St::Char:
            if (c == '\\')
                ++i;
            else if (c == '\'') {
                cur.code.push_back(c);
                st = St::Code;
            }
            break;
        case St::RawString:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1;
                st = St::Code;
            }
            break;
        }
    }
    return lines;
}

// --------------------------------------------------------------- waivers ---

const char *const kWaiverTags[] = {"ordered-ok", "rng-ok",
                                   "deterministic-reduce"};

struct Waiver
{
    std::string tag;
    bool valid = false; ///< known tag with a non-empty reason
};

/** Parse an rppm-lint waiver out of one line's comment text, if any. */
std::optional<Waiver>
parseWaiver(const std::string &comment)
{
    const size_t at = comment.find("rppm-lint:");
    if (at == std::string::npos)
        return std::nullopt;
    size_t p = at + std::string("rppm-lint:").size();
    while (p < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[p])))
        ++p;
    size_t tagEnd = p;
    while (tagEnd < comment.size() &&
           (isIdentChar(comment[tagEnd]) || comment[tagEnd] == '-'))
        ++tagEnd;
    Waiver w;
    w.tag = comment.substr(p, tagEnd - p);
    // "rppm-lint:" followed by no tag at all is prose about the waiver
    // syntax (e.g. this tool's own header comment), not a waiver attempt.
    if (w.tag.empty())
        return std::nullopt;
    const bool known =
        std::any_of(std::begin(kWaiverTags), std::end(kWaiverTags),
                    [&](const char *t) { return w.tag == t; });
    if (!known)
        return w;
    size_t open = tagEnd;
    while (open < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[open])))
        ++open;
    if (open >= comment.size() || comment[open] != '(')
        return w;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return w;
    std::string reason = comment.substr(open + 1, close - open - 1);
    const bool hasReason =
        std::any_of(reason.begin(), reason.end(), [](char c) {
            return !std::isspace(static_cast<unsigned char>(c));
        });
    w.valid = hasReason;
    return w;
}

// ------------------------------------------------------ name collection ---

/**
 * Names declared (or returned by a function declared) in this file with
 * an unordered_map/unordered_set type: scan for the token, balance the
 * template angle brackets, take the next identifier.
 */
std::set<std::string>
collectUnorderedNames(const std::vector<Line> &lines)
{
    std::string code;
    for (const Line &l : lines) {
        code += l.code;
        code.push_back('\n');
    }
    std::set<std::string> names;
    for (const char *tok : {"unordered_map", "unordered_set"}) {
        size_t pos = 0;
        while ((pos = code.find(tok, pos)) != std::string::npos) {
            const size_t after = pos + std::string(tok).size();
            if (pos > 0 && isIdentChar(code[pos - 1])) {
                pos = after;
                continue;
            }
            size_t p = after;
            while (p < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[p])))
                ++p;
            if (p >= code.size() || code[p] != '<') {
                pos = after;
                continue;
            }
            int depth = 0;
            for (; p < code.size(); ++p) {
                if (code[p] == '<')
                    ++depth;
                else if (code[p] == '>' && --depth == 0) {
                    ++p;
                    break;
                }
            }
            while (p < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[p])) ||
                    code[p] == '&' || code[p] == '*'))
                ++p;
            size_t q = p;
            while (q < code.size() && isIdentChar(code[q]))
                ++q;
            if (q > p)
                names.insert(code.substr(p, q - p));
            pos = q;
        }
    }
    return names;
}

/** Names declared in this file as bare float/double variables. */
std::set<std::string>
collectFloatNames(const std::string &codeLine, std::set<std::string> *out)
{
    for (const char *tok : {"float", "double"}) {
        size_t pos = 0;
        while ((pos = codeLine.find(tok, pos)) != std::string::npos) {
            const size_t after = pos + std::string(tok).size();
            const bool boundedL = pos == 0 || !isIdentChar(codeLine[pos - 1]);
            const bool boundedR =
                after >= codeLine.size() || !isIdentChar(codeLine[after]);
            if (!boundedL || !boundedR) {
                pos = after;
                continue;
            }
            size_t p = after;
            while (p < codeLine.size() &&
                   (std::isspace(static_cast<unsigned char>(codeLine[p])) ||
                    codeLine[p] == '&' || codeLine[p] == '*'))
                ++p;
            size_t q = p;
            while (q < codeLine.size() && isIdentChar(codeLine[q]))
                ++q;
            // `static_cast<double>(x)` / `vector<double>` leave no
            // identifier right after the closing of the type token.
            if (q > p) {
                const std::string name = codeLine.substr(p, q - p);
                if (name != "const")
                    out->insert(name);
            }
            pos = q > p ? q : after;
        }
    }
    return *out;
}

/** Last simple identifier in @p expr ("a.b[i].c" -> "c"), "" if none. */
std::string
trailingIdentifier(std::string expr)
{
    while (!expr.empty() &&
           (std::isspace(static_cast<unsigned char>(expr.back())) ||
            expr.back() == ')' || expr.back() == ']'))
        expr.pop_back();
    size_t end = expr.size();
    size_t begin = end;
    while (begin > 0 && isIdentChar(expr[begin - 1]))
        --begin;
    return expr.substr(begin, end - begin);
}

// ----------------------------------------------------------- file lint ---

struct FileClass
{
    bool header = false;
    bool resultDir = false;   ///< unordered-iter applies
    bool rngExempt = false;   ///< workload synthesis / the RNG itself
    bool srcTree = false;     ///< float-reduce applies
    bool aosBanned = false;   ///< aos-trace applies
};

FileClass
classify(const std::string &path)
{
    FileClass fc;
    fc.header = path.ends_with(".hh") || path.ends_with(".hpp") ||
                path.ends_with(".h");
    for (const char *dir : {"src/rppm/", "src/profile/", "src/statstack/",
                            "src/sim/", "src/simcore/"}) {
        if (path.find(dir) != std::string::npos)
            fc.resultDir = true;
    }
    fc.rngExempt = path.find("src/workload/") != std::string::npos ||
                   path.find("src/common/rng") != std::string::npos ||
                   path.find("tests/") != std::string::npos;
    fc.srcTree = path.find("src/") != std::string::npos;
    fc.aosBanned = fc.srcTree &&
                   path.find("src/trace/") == std::string::npos &&
                   !path.ends_with("src/workload/workload.hh") &&
                   !path.ends_with("src/workload/workload.cc");
    return fc;
}

/** Does @p code name the identifier @p tok (not a longer one)? */
bool
namesIdentifier(const std::string &code, const std::string &tok)
{
    for (size_t at = code.find(tok); at != std::string::npos;
         at = code.find(tok, at + 1)) {
        const size_t after = at + tok.size();
        if ((at == 0 || !isIdentChar(code[at - 1])) &&
            (after >= code.size() || !isIdentChar(code[after])))
            return true;
    }
    return false;
}

/** forEach-lambda extents, as [firstLine, lastLine] 0-based pairs. */
std::vector<std::pair<size_t, size_t>>
forEachExtents(const std::vector<Line> &lines)
{
    std::vector<std::pair<size_t, size_t>> extents;
    for (size_t i = 0; i < lines.size(); ++i) {
        const size_t at = lines[i].code.find("forEach");
        if (at == std::string::npos)
            continue;
        // Balance parens from the call's opening '(' across lines.
        int depth = 0;
        bool opened = false;
        size_t col = at;
        for (size_t j = i; j < lines.size(); ++j) {
            const std::string &code = lines[j].code;
            for (size_t k = j == i ? col : 0; k < code.size(); ++k) {
                if (code[k] == '(') {
                    ++depth;
                    opened = true;
                } else if (code[k] == ')' && opened && --depth == 0) {
                    extents.emplace_back(i, j);
                    j = lines.size();
                    break;
                }
            }
            if (j == lines.size())
                break;
        }
    }
    return extents;
}

void
lintFile(const std::string &displayPath, const std::string &text,
         std::vector<Finding> &findings)
{
    const FileClass fc = classify(displayPath);
    const std::vector<Line> lines = splitLines(text);

    // Waivers: a waiver covers its own line; a comment-only waiver line
    // covers the next line. Malformed waivers are findings themselves.
    std::vector<std::string> waiverAt(lines.size() + 1);
    for (size_t i = 0; i < lines.size(); ++i) {
        const auto w = parseWaiver(lines[i].comment);
        if (!w)
            continue;
        if (!w->valid) {
            findings.push_back(
                {displayPath, i + 1, "waiver",
                 "malformed waiver '" + w->tag +
                     "': use // rppm-lint: <tag>(<non-empty reason>) "
                     "with tag one of ordered-ok, rng-ok, "
                     "deterministic-reduce"});
            continue;
        }
        waiverAt[i] = w->tag;
        const bool commentOnly =
            std::all_of(lines[i].code.begin(), lines[i].code.end(),
                        [](char c) {
                            return std::isspace(
                                static_cast<unsigned char>(c));
                        });
        if (commentOnly && i + 1 < lines.size())
            waiverAt[i + 1] = w->tag;
    }
    const auto waived = [&](size_t i, const char *tag) {
        return waiverAt[i] == tag;
    };

    // --- [unordered-iter] ---------------------------------------------
    if (fc.resultDir) {
        const std::set<std::string> unordered = collectUnorderedNames(lines);
        for (size_t i = 0; i < lines.size(); ++i) {
            const std::string &code = lines[i].code;
            if (waived(i, "ordered-ok"))
                continue;
            // Range-for over an unordered container.
            size_t f = code.find("for");
            if (f != std::string::npos &&
                (f == 0 || !isIdentChar(code[f - 1])) &&
                (f + 3 >= code.size() || !isIdentChar(code[f + 3]))) {
                const size_t open = code.find('(', f);
                const size_t close = code.rfind(')');
                if (open != std::string::npos &&
                    close != std::string::npos && close > open) {
                    const std::string inside =
                        code.substr(open + 1, close - open - 1);
                    // The range expression follows the last single ':'.
                    size_t colon = std::string::npos;
                    for (size_t k = 0; k < inside.size(); ++k) {
                        if (inside[k] != ':')
                            continue;
                        if (k + 1 < inside.size() && inside[k + 1] == ':') {
                            ++k;
                            continue;
                        }
                        colon = k;
                    }
                    if (colon != std::string::npos) {
                        const std::string name =
                            trailingIdentifier(inside.substr(colon + 1));
                        if (unordered.count(name)) {
                            findings.push_back(
                                {displayPath, i + 1, "unordered-iter",
                                 "iteration over unordered container '" +
                                     name +
                                     "' in a result-affecting directory; "
                                     "iterate a sorted copy, or waive "
                                     "with // rppm-lint: "
                                     "ordered-ok(reason) if provably "
                                     "order-independent"});
                            continue;
                        }
                    }
                }
            }
            // Explicit iterator walks: NAME.begin() / NAME.cbegin().
            for (const char *b : {".begin", ".cbegin"}) {
                size_t at = code.find(b);
                while (at != std::string::npos) {
                    const std::string name =
                        trailingIdentifier(code.substr(0, at));
                    if (unordered.count(name)) {
                        findings.push_back(
                            {displayPath, i + 1, "unordered-iter",
                             "iterator over unordered container '" + name +
                                 "' in a result-affecting directory"});
                        break;
                    }
                    at = code.find(b, at + 1);
                }
            }
        }
    }

    // --- [rng] --------------------------------------------------------
    if (!fc.rngExempt) {
        struct Tok
        {
            const char *text;
            bool call; ///< must be followed by '('
        };
        const Tok toks[] = {{"rand", true},          {"srand", false},
                            {"random_device", false}, {"time", true},
                            {"getenv", false},        {"gettimeofday", false},
                            {"clock_gettime", false}};
        for (size_t i = 0; i < lines.size(); ++i) {
            if (waived(i, "rng-ok"))
                continue;
            const std::string &code = lines[i].code;
            for (const Tok &t : toks) {
                size_t at = code.find(t.text);
                const size_t len = std::string(t.text).size();
                bool hit = false;
                while (at != std::string::npos && !hit) {
                    const bool bl = at == 0 || !isIdentChar(code[at - 1]);
                    size_t after = at + len;
                    bool br = after >= code.size() ||
                              !isIdentChar(code[after]);
                    if (bl && br && t.call) {
                        while (after < code.size() &&
                               std::isspace(static_cast<unsigned char>(
                                   code[after])))
                            ++after;
                        br = after < code.size() && code[after] == '(';
                    }
                    if (bl && br)
                        hit = true;
                    else
                        at = code.find(t.text, at + 1);
                }
                if (hit) {
                    findings.push_back(
                        {displayPath, i + 1, "rng",
                         std::string("'") + t.text +
                             "' outside workload synthesis: hidden "
                             "entropy/time/environment reads break "
                             "reproducibility; waive a result-neutral "
                             "read with // rppm-lint: rng-ok(reason)"});
                }
            }
        }
    }

    // --- [float-reduce] -----------------------------------------------
    if (fc.srcTree) {
        std::set<std::string> floatNames;
        for (const Line &l : lines)
            collectFloatNames(l.code, &floatNames);
        for (const auto &[first, last] : forEachExtents(lines)) {
            // Names declared inside the extent are lambda-locals:
            // accumulating into those is scheduling-independent.
            std::set<std::string> localNames;
            for (size_t i = first; i <= last && i < lines.size(); ++i)
                collectFloatNames(lines[i].code, &localNames);
            for (size_t i = first; i <= last && i < lines.size(); ++i) {
                if (waived(i, "deterministic-reduce"))
                    continue;
                const std::string &code = lines[i].code;
                for (const char *op : {"+=", "-=", "*="}) {
                    const size_t at = code.find(op);
                    if (at == std::string::npos)
                        continue;
                    const std::string name =
                        trailingIdentifier(code.substr(0, at));
                    if (name.empty() || localNames.count(name))
                        continue;
                    if (floatNames.count(name)) {
                        findings.push_back(
                            {displayPath, i + 1, "float-reduce",
                             "float/double accumulation into '" + name +
                                 "' inside a forEach lambda: reduction "
                                 "order follows worker scheduling; "
                                 "reduce into per-index slots, or waive "
                                 "with // rppm-lint: "
                                 "deterministic-reduce(reason)"});
                    }
                }
            }
        }
    }

    // --- [aos-trace] -------------------------------------------------
    if (fc.aosBanned) {
        for (size_t i = 0; i < lines.size(); ++i) {
            for (const char *tok : {"WorkloadTrace", "ThreadTrace"}) {
                if (!namesIdentifier(lines[i].code, tok))
                    continue;
                findings.push_back(
                    {displayPath, i + 1, "aos-trace",
                     std::string("'") + tok +
                         "' outside src/trace/ and "
                         "src/workload/workload.{hh,cc}: engines read "
                         "the columnar trace (ColumnarTrace, built with "
                         "ThreadTraceBuilder or synthesizeTrace)"});
                break;
            }
        }
    }

    // --- header hygiene ----------------------------------------------
    if (fc.header) {
        bool pragmaOnce = false, ifndef = false, define = false;
        for (const Line &l : lines) {
            if (l.code.find("#pragma once") != std::string::npos)
                pragmaOnce = true;
            if (l.code.find("#ifndef") != std::string::npos)
                ifndef = true;
            if (l.code.find("#define") != std::string::npos)
                define = true;
        }
        if (!pragmaOnce && !(ifndef && define)) {
            findings.push_back(
                {displayPath, 1, "include-guard",
                 "header lacks an include guard (#pragma once or "
                 "#ifndef/#define)"});
        }
        for (size_t i = 0; i < lines.size(); ++i) {
            const size_t at = lines[i].code.find("using namespace");
            if (at != std::string::npos) {
                findings.push_back(
                    {displayPath, i + 1, "using-namespace",
                     "using-namespace directive in a header leaks into "
                     "every includer"});
            }
        }
    }
}

// -------------------------------------------------------------- driving ---

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".hpp" ||
           ext == ".h";
}

std::optional<std::string>
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Tree mode: lint every source file under root's known subtrees. */
int
lintTree(const fs::path &root)
{
    std::vector<Finding> findings;
    std::vector<fs::path> files;
    for (const char *sub : {"src", "bench", "examples", "tests", "tools"}) {
        const fs::path dir = root / sub;
        if (!fs::exists(dir))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file() ||
                !lintableExtension(entry.path()))
                continue;
            // Fixture snippets intentionally violate the rules.
            if (entry.path().string().find("fixtures") != std::string::npos)
                continue;
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files) {
        const auto text = readFile(f);
        if (!text) {
            std::cerr << "rppm_lint: cannot read " << f << "\n";
            return 2;
        }
        lintFile(fs::relative(f, root).generic_string(), *text, findings);
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line) < std::tie(b.file, b.line);
              });
    for (const Finding &f : findings) {
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    }
    std::cout << "rppm_lint: " << files.size() << " files, "
              << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
}

/**
 * Fixture mode. Filenames encode the expectation:
 *   <rule>.fail.<slug>.cc  must yield >= 1 finding with rule <rule>
 *   pass.<slug>.cc         must yield no findings
 */
int
selfTest(const fs::path &root)
{
    size_t checked = 0, failed = 0;
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && lintableExtension(entry.path()))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files) {
        const std::string name = f.filename().string();
        const size_t failAt = name.find(".fail.");
        const bool expectPass = name.rfind("pass.", 0) == 0;
        if (failAt == std::string::npos && !expectPass)
            continue; // not a fixture
        const auto text = readFile(f);
        if (!text) {
            std::cerr << "rppm_lint: cannot read " << f << "\n";
            return 2;
        }
        std::vector<Finding> findings;
        lintFile(fs::relative(f, root).generic_string(), *text, findings);
        ++checked;
        if (expectPass) {
            if (!findings.empty()) {
                ++failed;
                std::cout << "FAIL " << name
                          << ": expected clean, found:\n";
                for (const Finding &fi : findings)
                    std::cout << "  line " << fi.line << ": [" << fi.rule
                              << "] " << fi.message << "\n";
            }
            continue;
        }
        const std::string rule = name.substr(0, failAt);
        const bool hit =
            std::any_of(findings.begin(), findings.end(),
                        [&](const Finding &fi) { return fi.rule == rule; });
        if (!hit) {
            ++failed;
            std::cout << "FAIL " << name << ": expected a [" << rule
                      << "] finding, got " << findings.size()
                      << " finding(s)";
            for (const Finding &fi : findings)
                std::cout << " [" << fi.rule << "]";
            std::cout << "\n";
        }
    }
    std::cout << "rppm_lint self-test: " << checked << " fixtures, "
              << failed << " failure(s)\n";
    if (checked == 0) {
        std::cerr << "rppm_lint: no fixtures found under " << root << "\n";
        return 2;
    }
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::cerr << "usage: rppm_lint --root <dir> | --self-test <dir> | "
                     "<file>...\n";
        return 2;
    }
    if (args[0] == "--root" || args[0] == "--self-test") {
        if (args.size() != 2) {
            std::cerr << "rppm_lint: " << args[0]
                      << " takes exactly one directory\n";
            return 2;
        }
        const fs::path root(args[1]);
        if (!fs::is_directory(root)) {
            std::cerr << "rppm_lint: not a directory: " << root << "\n";
            return 2;
        }
        return args[0] == "--root" ? lintTree(root) : selfTest(root);
    }

    std::vector<Finding> findings;
    for (const std::string &arg : args) {
        const auto text = readFile(arg);
        if (!text) {
            std::cerr << "rppm_lint: cannot read " << arg << "\n";
            return 2;
        }
        lintFile(fs::path(arg).generic_string(), *text, findings);
    }
    for (const Finding &f : findings) {
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    }
    return findings.empty() ? 0 : 1;
}
