#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace mglint {

namespace {

// ---------------------------------------------------------------- tokens

struct Token
{
    std::string text;
    int line = 0;
};

/** One scanned file: code tokens (comments/strings/preprocessor
 *  stripped) plus the per-line suppression sets mined from comments. */
struct FileScan
{
    std::string path;
    std::vector<Token> toks;
    /** line -> rules allowed on that line (and the next). */
    std::map<int, std::set<std::string>> allow;
    std::set<std::string> allowFile;   ///< file-wide suppressions
};

/** Record `mglint:allow(...)` / `mglint:allow-file(...)` found in a
 *  comment starting on @p line. */
void
mineAllow(FileScan &fc, const std::string &comment, int line)
{
    for (std::size_t at = comment.find("mglint:allow");
         at != std::string::npos;
         at = comment.find("mglint:allow", at + 1)) {
        std::size_t open = comment.find('(', at);
        if (open == std::string::npos)
            continue;
        std::size_t close = comment.find(')', open);
        if (close == std::string::npos)
            continue;
        bool fileWide =
            comment.compare(at, 17, "mglint:allow-file") == 0;
        std::string list = comment.substr(open + 1, close - open - 1);
        std::stringstream ss(list);
        std::string rule;
        while (std::getline(ss, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (rule.empty())
                continue;
            if (fileWide)
                fc.allowFile.insert(rule);
            else
                fc.allow[line].insert(rule);
        }
    }
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Tokenize one file: identifiers and punctuation (with `::` fused),
 *  skipping comments (mined for allow annotations), string/char
 *  literals (raw strings included), numbers, and preprocessor lines. */
FileScan
scanFile(const std::string &path)
{
    FileScan fc;
    fc.path = path;
    std::ifstream in(path, std::ios::binary);
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();
    auto peek = [&](std::size_t k) {
        return i + k < n ? src[i + k] : '\0';
    };
    bool atLineStart = true;
    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && atLineStart) {
            // Preprocessor directive: consume to end of line,
            // honouring continuations. `#include <map>` must not look
            // like a pointer-keyed map.
            while (i < n && src[i] != '\n') {
                if (src[i] == '\\' && peek(1) == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                ++i;
            }
            continue;
        }
        atLineStart = false;
        if (c == '/' && peek(1) == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos)
                end = n;
            mineAllow(fc, src.substr(i, end - i), line);
            i = end;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            std::size_t end = src.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            mineAllow(fc, src.substr(i, end - i), line);
            line += static_cast<int>(
                std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                           src.begin() + static_cast<std::ptrdiff_t>(end),
                           '\n'));
            i = end;
            continue;
        }
        if (c == 'R' && peek(1) == '"') {
            // Raw string literal R"delim(...)delim" (the workload
            // kernels embed assembly this way).
            std::size_t po = src.find('(', i + 2);
            if (po == std::string::npos) {
                ++i;
                continue;
            }
            std::string close = ")";
            close.append(src, i + 2, po - (i + 2)).append("\"");
            std::size_t end = src.find(close, po + 1);
            end = end == std::string::npos ? n : end + close.size();
            line += static_cast<int>(
                std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                           src.begin() + static_cast<std::ptrdiff_t>(end),
                           '\n'));
            i = end;
            continue;
        }
        if (c == '"' || c == '\'') {
            char q = c;
            ++i;
            while (i < n && src[i] != q) {
                if (src[i] == '\\')
                    ++i;
                if (i < n && src[i] == '\n')
                    ++line;
                ++i;
            }
            ++i;
            continue;
        }
        if (identChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t s = i;
            while (i < n && identChar(src[i]))
                ++i;
            fc.toks.push_back({src.substr(s, i - s), line});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            while (i < n && (identChar(src[i]) || src[i] == '.' ||
                             ((src[i] == '+' || src[i] == '-') &&
                              (src[i - 1] == 'e' || src[i - 1] == 'E'))))
                ++i;
            continue;   // numeric literals carry no lint signal
        }
        if (c == ':' && peek(1) == ':') {
            fc.toks.push_back({"::", line});
            i += 2;
            continue;
        }
        fc.toks.push_back({std::string(1, c), line});
        ++i;
    }
    return fc;
}

// ------------------------------------------------------- cross-file state

/** Member variables per struct/class name, merged over every file. */
using MemberTable = std::map<std::string, std::set<std::string>>;

/** A serialize or deserialize function definition. */
struct SerialFn
{
    std::string file;
    int line = 0;
    std::string structName;         ///< the encoded type
    std::set<std::string> members;  ///< struct members its body touches
};

bool
isUnorderedName(const std::string &t)
{
    return t == "unordered_map" || t == "unordered_set" ||
           t == "unordered_multimap" || t == "unordered_multiset";
}

/** Advance @p k past one balanced <...> starting at the `<`. Returns
 *  the index one past the closing `>`, or toks.size() on imbalance. */
std::size_t
skipTemplateArgs(const std::vector<Token> &toks, std::size_t k)
{
    int depth = 0;
    for (; k < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        if (t == "<")
            ++depth;
        else if (t == ">" && --depth == 0)
            return k + 1;
        else if (t == ">>" )
            depth -= 2;   // not produced by our tokenizer; safety
        else if (t == ";")
            break;        // not a template after all (a < b;)
    }
    return toks.size();
}

/** Advance past one balanced (...) / {...} / [...] starting at the
 *  opener at @p k; returns one past the closer. */
std::size_t
skipBalanced(const std::vector<Token> &toks, std::size_t k,
             const char *open, const char *close)
{
    int depth = 0;
    for (; k < toks.size(); ++k) {
        if (toks[k].text == open)
            ++depth;
        else if (toks[k].text == close && --depth == 0)
            return k + 1;
    }
    return toks.size();
}

/**
 * Collect member-variable names of every struct/class defined in
 * @p fc. Heuristic statement scan: inside a class body, a statement
 * that ends in `;` without a parameter list is a data member, and the
 * member name is the identifier right before the `;` / `=` / `{`
 * initializer / `[` array bound.
 */
void
collectStructs(const FileScan &fc, MemberTable &table)
{
    const std::vector<Token> &toks = fc.toks;
    for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
        if (toks[k].text != "struct" && toks[k].text != "class")
            continue;
        std::size_t j = k + 1;
        if (j >= toks.size() || !identChar(toks[j].text[0]))
            continue;
        std::string name = toks[j].text;
        ++j;
        // Skip base-class clause; bail on forward declarations and
        // template parameters (`template <class T>`).
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";" && toks[j].text != ">" &&
               toks[j].text != "(")
            ++j;
        if (j >= toks.size() || toks[j].text != "{")
            continue;
        std::set<std::string> &members = table[name];
        int depth = 1;
        ++j;
        std::vector<std::size_t> stmt;   // token indices of statement
        bool sawParen = false;
        for (; j < toks.size() && depth > 0; ++j) {
            const std::string &t = toks[j].text;
            if (t == "{") {
                // Nested scope: method body, nested class, or a
                // brace initializer. A brace initializer follows a
                // member name directly (prev token is an identifier
                // and the statement has no parameter list) — treat it
                // as the end of the declarator.
                bool braceInit = !stmt.empty() && !sawParen &&
                                 identChar(toks[stmt.back()].text[0]);
                if (braceInit) {
                    // `enum class E : T { ... }` and `using`/`friend`
                    // statements end in a brace too but declare no
                    // data member.
                    for (std::size_t q = 0; q < stmt.size(); ++q) {
                        const std::string &qt = toks[stmt[q]].text;
                        if (qt == "enum" || qt == "using" ||
                            qt == "typedef" || qt == "friend" ||
                            qt == "struct" || qt == "class") {
                            braceInit = false;
                            break;
                        }
                    }
                }
                if (braceInit) {
                    members.insert(toks[stmt.back()].text);
                }
                j = skipBalanced(toks, j, "{", "}") - 1;
                if (braceInit)
                    continue;      // `;` after init ends the statement
                stmt.clear();
                sawParen = false;
                continue;
            }
            if (t == "}") {
                --depth;
                continue;
            }
            if (t == "(") {
                sawParen = true;
                j = skipBalanced(toks, j, "(", ")") - 1;
                continue;
            }
            if (t == "<") {
                std::size_t after = skipTemplateArgs(toks, j);
                if (after < toks.size()) {
                    j = after - 1;
                    continue;
                }
            }
            if (t == ";") {
                if (!stmt.empty() && !sawParen) {
                    // Find the declarator name: identifier before
                    // `;`, or before a `=` / `[` if present.
                    std::size_t last = stmt.size();
                    for (std::size_t s = 0; s < stmt.size(); ++s) {
                        const std::string &st = toks[stmt[s]].text;
                        if (st == "=" || st == "[") {
                            last = s;
                            break;
                        }
                    }
                    for (std::size_t s = last; s-- > 0;) {
                        const std::string &st = toks[stmt[s]].text;
                        if (identChar(st[0]) && st != "const" &&
                            st != "mutable" && st != "static" &&
                            st != "constexpr" && st != "using" &&
                            st != "typedef" && st != "friend" &&
                            st != "enum" && st != "struct" &&
                            st != "class" && st != "public" &&
                            st != "private" && st != "protected") {
                            // `using x = ...` / access labels never
                            // reach here (filtered below).
                            bool skip = false;
                            for (std::size_t q = 0; q < stmt.size(); ++q) {
                                const std::string &qt =
                                    toks[stmt[q]].text;
                                if (qt == "using" || qt == "typedef" ||
                                    qt == "friend" || qt == "enum") {
                                    skip = true;
                                    break;
                                }
                            }
                            if (!skip)
                                members.insert(st);
                            break;
                        }
                    }
                }
                stmt.clear();
                sawParen = false;
                continue;
            }
            if (t == ":" && !stmt.empty() &&
                (toks[stmt.back()].text == "public" ||
                 toks[stmt.back()].text == "private" ||
                 toks[stmt.back()].text == "protected")) {
                stmt.clear();
                continue;
            }
            stmt.push_back(j);
        }
        // Note: `k` keeps advancing from the struct keyword, so nested
        // classes are collected by their own pass.
    }
}

/** Names declared anywhere in the corpus as std::unordered_*
 *  variables/members (plus struct membership is irrelevant: the name
 *  itself is the match key for the iteration rule). */
void
collectUnorderedNames(const FileScan &fc, std::set<std::string> &names)
{
    const std::vector<Token> &toks = fc.toks;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
        if (!isUnorderedName(toks[k].text) || toks[k + 1].text != "<")
            continue;
        std::size_t after = skipTemplateArgs(toks, k + 1);
        // Skip one ref/pointer declarator so `unordered_map<K,V> &m`
        // (a parameter or reference binding) is captured too.
        if (after < toks.size() &&
            (toks[after].text == "&" || toks[after].text == "*"))
            ++after;
        if (after < toks.size() && identChar(toks[after].text[0]) &&
            after + 1 < toks.size() &&
            (toks[after + 1].text == ";" || toks[after + 1].text == "=" ||
             toks[after + 1].text == "{" || toks[after + 1].text == "," ||
             toks[after + 1].text == ")")) {
            names.insert(toks[after].text);
        }
    }
}

// ------------------------------------------------------------- the rules

struct Ctx
{
    const MemberTable &members;
    const std::set<std::string> &unorderedNames;
    std::vector<Finding> raw;   ///< pre-suppression findings
    std::vector<SerialFn> serialFns;

    void
    add(const FileScan &fc, int line, const char *rule,
        std::string message)
    {
        raw.push_back({fc.path, line, rule, std::move(message)});
    }
};

const std::set<std::string> &
bannedCalls()
{
    static const std::set<std::string> s = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "random",
        "time", "clock",
    };
    return s;
}

void
ruleBannedRand(const FileScan &fc, Ctx &ctx)
{
    const std::vector<Token> &toks = fc.toks;
    for (std::size_t k = 0; k < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        if (t == "random_device") {
            ctx.add(fc, toks[k].line, "banned-rand",
                    "std::random_device is nondeterministic; seed a "
                    "SplitMix64 from common/rng.hh instead");
            continue;
        }
        if (!bannedCalls().count(t))
            continue;
        // Only a *call* of the bare name is banned: `clock::now`,
        // `steady_clock`, and member names like `last_write_time`
        // are distinct tokens and never match here.
        bool called = k + 1 < toks.size() && toks[k + 1].text == "(";
        bool qualifiedMember = k > 0 && (toks[k - 1].text == "." ||
                                         toks[k - 1].text == "->");
        // A preceding type-ish identifier means this is a function
        // *declaration* named like the libc symbol (`long time()`),
        // not a call; `return time()` and `std::time()` still count.
        bool declared = false;
        if (k > 0 && identChar(toks[k - 1].text[0])) {
            const std::string &p = toks[k - 1].text;
            declared = p != "return" && p != "else" && p != "do" &&
                       p != "case" && p != "co_return";
        }
        if (called && !qualifiedMember && !declared) {
            ctx.add(fc, toks[k].line, "banned-rand",
                    t + "() is wall-clock/libc-state nondeterminism; "
                        "derive values from fingerprints or "
                        "common/rng.hh");
        }
    }
}

void
rulePtrKey(const FileScan &fc, Ctx &ctx)
{
    const std::vector<Token> &toks = fc.toks;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        if (t != "map" && t != "set" && t != "multimap" &&
            t != "multiset")
            continue;
        if (toks[k + 1].text != "<")
            continue;
        // Require std:: (or global) qualification-ish context: the
        // previous token is `::` or a type position. Accept all and
        // rely on the template scan: `Foo.set<int>()` is not a decl.
        // First template argument: tokens until top-level `,` or `>`.
        int depth = 0;
        bool ptr = false;
        for (std::size_t j = k + 1; j < toks.size(); ++j) {
            const std::string &u = toks[j].text;
            if (u == "<") {
                ++depth;
            } else if (u == ">") {
                if (--depth == 0)
                    break;
            } else if (u == "," && depth == 1) {
                break;
            } else if (u == "*" && depth == 1) {
                ptr = true;
            } else if (u == ";") {
                break;
            }
        }
        if (ptr) {
            ctx.add(fc, toks[k].line, "ptr-key",
                    "std::" + t +
                        " keyed by a pointer iterates in address "
                        "order (ASLR-nondeterministic); key by a "
                        "stable id or use an unordered container "
                        "with a sorted view");
        }
    }
}

void
ruleUnorderedIter(const FileScan &fc, Ctx &ctx)
{
    const std::vector<Token> &toks = fc.toks;
    // Range-for over a known unordered name.
    for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
        if (toks[k].text != "for" || toks[k + 1].text != "(")
            continue;
        std::size_t close = skipBalanced(toks, k + 1, "(", ")");
        // Find a top-level `:` inside the for(...) head.
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = k + 1; j + 1 < close; ++j) {
            const std::string &u = toks[j].text;
            if (u == "(" || u == "[" || u == "{")
                ++depth;
            else if (u == ")" || u == "]" || u == "}")
                --depth;
            else if (u == ":" && depth == 1) {
                colon = j;
                break;
            }
        }
        if (!colon)
            continue;
        // A braced init-list range (`for (x : {a, b, c})`) iterates
        // in written order — deterministic by construction.
        if (colon + 1 < close && toks[colon + 1].text == "{")
            continue;
        // Last identifier of the range expression (handles `name`,
        // `obj.name`, `ptr->name`).
        std::string last;
        int lastLine = toks[colon].line;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
            if (identChar(toks[j].text[0])) {
                last = toks[j].text;
                lastLine = toks[j].line;
            }
        }
        if (!last.empty() && ctx.unorderedNames.count(last)) {
            ctx.add(fc, lastLine, "unordered-iter",
                    "iterating std::unordered_* container '" + last +
                        "': hash order is not deterministic — sort a "
                        "view first if this feeds stats, reports, "
                        "serialization, eviction, or aggregation");
        }
    }
    // Explicit iterator walk: name.begin() / name->begin().
    for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
        if ((toks[k + 1].text == "." || toks[k + 1].text == "->") &&
            (toks[k + 2].text == "begin" || toks[k + 2].text == "cbegin") &&
            ctx.unorderedNames.count(toks[k].text)) {
            ctx.add(fc, toks[k].line, "unordered-iter",
                    "iterator walk over std::unordered_* container '" +
                        toks[k].text +
                        "': hash order is not deterministic — sort a "
                        "view first if this feeds stats, reports, "
                        "serialization, eviction, or aggregation");
        }
    }
}

/** Find serialize/deserialize function *definitions* and record which
 *  members of their subject struct the body references. */
void
collectSerialFns(const FileScan &fc, Ctx &ctx)
{
    const std::vector<Token> &toks = fc.toks;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        bool isSer = t.rfind("serialize", 0) == 0;
        bool isDes = t.rfind("deserialize", 0) == 0;
        if (!isSer && !isDes)
            continue;
        if (toks[k + 1].text != "(")
            continue;
        // Qualified member definition `X::serialize(` or free
        // function `serializeX(`.
        std::string owner;
        if (k >= 2 && toks[k - 1].text == "::" &&
            identChar(toks[k - 2].text[0]))
            owner = toks[k - 2].text;
        std::size_t endParams = skipBalanced(toks, k + 1, "(", ")");
        // Definition? Skip trailing const/noexcept/override, then `{`.
        std::size_t b = endParams;
        while (b < toks.size() && (toks[b].text == "const" ||
                                   toks[b].text == "noexcept" ||
                                   toks[b].text == "override"))
            ++b;
        if (b >= toks.size() || toks[b].text != "{")
            continue;   // declaration only
        // Subject struct: the owner for members, else the first
        // parameter type that names a known struct.
        std::string subject = owner;
        if (subject.empty()) {
            for (std::size_t j = k + 2; j < endParams; ++j) {
                if (ctx.members.count(toks[j].text)) {
                    subject = toks[j].text;
                    break;
                }
            }
        }
        if (subject.empty() || !ctx.members.count(subject))
            continue;
        const std::set<std::string> &mem = ctx.members.at(subject);
        std::size_t endBody = skipBalanced(toks, b, "{", "}");
        SerialFn fn;
        fn.file = fc.path;
        fn.line = toks[k].line;
        fn.structName =
            subject + "|" + (owner.empty() ? t.substr(isSer ? 9 : 11)
                                           : std::string("member"));
        for (std::size_t j = b; j < endBody; ++j) {
            if (mem.count(toks[j].text))
                fn.members.insert(toks[j].text);
        }
        // Pair key: subject + suffix; store direction in the name.
        fn.structName = (isSer ? "S|" : "D|") + fn.structName;
        ctx.serialFns.push_back(std::move(fn));
    }
}

void
ruleSerialParity(Ctx &ctx, const std::map<std::string, FileScan> &scans)
{
    // Pair S|key with D|key.
    std::map<std::string, const SerialFn *> sers, dess;
    for (const SerialFn &fn : ctx.serialFns) {
        if (fn.structName.rfind("S|", 0) == 0)
            sers[fn.structName.substr(2)] = &fn;
        else
            dess[fn.structName.substr(2)] = &fn;
    }
    for (const auto &[key, ser] : sers) {
        auto it = dess.find(key);
        if (it == dess.end())
            continue;
        const SerialFn *des = it->second;
        std::vector<std::string> onlySer, onlyDes;
        std::set_difference(ser->members.begin(), ser->members.end(),
                            des->members.begin(), des->members.end(),
                            std::back_inserter(onlySer));
        std::set_difference(des->members.begin(), des->members.end(),
                            ser->members.begin(), ser->members.end(),
                            std::back_inserter(onlyDes));
        if (onlySer.empty() && onlyDes.empty())
            continue;
        std::string msg = "serialize/deserialize drift for '" +
                          key.substr(0, key.find('|')) + "':";
        for (const std::string &m : onlySer)
            msg += " '" + m + "' serialized but never restored;";
        for (const std::string &m : onlyDes)
            msg += " '" + m + "' restored but never serialized;";
        msg += " bump the format version and fix the lagging side";
        // Report at the serialize definition (annotate there).
        auto fsIt = scans.find(ser->file);
        if (fsIt != scans.end())
            ctx.raw.push_back(
                {ser->file, ser->line, "serial-parity", msg});
    }
}

void
ruleFormatVersion(const FileScan &fc, Ctx &ctx)
{
    // A file that introduces a record magic must speak of a version.
    int magicLine = 0;
    std::string magicName;
    bool hasVersion = false;
    for (const Token &t : fc.toks) {
        if (t.text.size() >= 5 &&
            (t.text.find("Magic") != std::string::npos ||
             t.text.find("magic") == 0)) {
            if (!magicLine) {
                magicLine = t.line;
                magicName = t.text;
            }
        }
        std::string low;
        for (char c : t.text)
            low += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (low.find("version") != std::string::npos)
            hasVersion = true;
    }
    if (magicLine && !hasVersion) {
        ctx.add(fc, magicLine, "format-version",
                "record magic '" + magicName +
                    "' without a format version: serialized records "
                    "must write and check one so stale layouts read "
                    "as a miss, not as garbage");
    }
}

bool
suppressed(const FileScan &fc, const Finding &f)
{
    if (fc.allowFile.count(f.rule))
        return true;
    for (int l : {f.line, f.line - 1}) {
        auto it = fc.allow.find(l);
        if (it != fc.allow.end() && it->second.count(f.rule))
            return true;
    }
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
ruleCatalog()
{
    return {
        {"banned-rand",
         "rand()/srand()/time()/clock()/std::random_device are "
         "nondeterminism sources; use common/rng.hh"},
        {"ptr-key",
         "std::map/set keyed by a pointer iterates in address order"},
        {"unordered-iter",
         "iteration over std::unordered_* containers is hash-order "
         "dependent"},
        {"serial-parity",
         "serialize/deserialize pairs must touch the same member set"},
        {"format-version",
         "files defining a record magic must carry a format version"},
    };
}

std::vector<std::string>
collectSources(const std::vector<std::string> &roots)
{
    std::vector<std::string> files;
    auto wanted = [](const fs::path &p) {
        std::string e = p.extension().string();
        return e == ".cpp" || e == ".cc" || e == ".hh" || e == ".h";
    };
    for (const std::string &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator it(root, ec), end;
                 !ec && it != end; it.increment(ec)) {
                if (it->is_regular_file(ec) && wanted(it->path()))
                    files.push_back(it->path().string());
            }
        } else {
            files.push_back(root);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

LintResult
lintFiles(const std::vector<std::string> &files)
{
    std::map<std::string, FileScan> scans;
    MemberTable members;
    std::set<std::string> unorderedNames;
    for (const std::string &f : files) {
        FileScan fc = scanFile(f);
        collectStructs(fc, members);
        collectUnorderedNames(fc, unorderedNames);
        scans.emplace(f, std::move(fc));
    }

    Ctx ctx{members, unorderedNames, {}, {}};
    for (const auto &[path, fc] : scans) {
        ruleBannedRand(fc, ctx);
        rulePtrKey(fc, ctx);
        ruleUnorderedIter(fc, ctx);
        ruleFormatVersion(fc, ctx);
        collectSerialFns(fc, ctx);
    }
    ruleSerialParity(ctx, scans);

    LintResult r;
    r.filesScanned = static_cast<int>(files.size());
    for (Finding &f : ctx.raw) {
        const FileScan &fc = scans.at(f.file);
        if (suppressed(fc, f))
            ++r.suppressed;
        else
            r.findings.push_back(std::move(f));
    }
    std::sort(r.findings.begin(), r.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    // Identical findings can surface twice (e.g. a name that is both
    // range-iterated and begin()-walked on one line); report once.
    r.findings.erase(
        std::unique(r.findings.begin(), r.findings.end(),
                    [](const Finding &a, const Finding &b) {
                        return a.file == b.file && a.line == b.line &&
                               a.rule == b.rule &&
                               a.message == b.message;
                    }),
        r.findings.end());
    return r;
}

std::string
findingsJson(const LintResult &r)
{
    std::string out = "{\n  \"files_scanned\": " +
                      std::to_string(r.filesScanned) +
                      ",\n  \"suppressed\": " +
                      std::to_string(r.suppressed) +
                      ",\n  \"findings\": [";
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const Finding &f = r.findings[i];
        out += i ? "," : "";
        out += "\n    {\"file\": \"" + jsonEscape(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"" + f.rule + "\", \"message\": \"" +
               jsonEscape(f.message) + "\"}";
    }
    out += r.findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace mglint
