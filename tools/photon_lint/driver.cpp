/**
 * @file
 * analyzeFiles(): lex + parse every file into one model, run both
 * passes, and return sorted, deduplicated diagnostics.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "model.hpp"

namespace photon::lint {

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::NondeterministicCall:
        return "nondeterministic-call";
    case Kind::UnorderedIteration:
        return "unordered-iteration";
    case Kind::PointerKeyedOrder:
        return "pointer-keyed-order";
    case Kind::UninitializedMember:
        return "uninitialized-member";
    case Kind::AosInHotPath:
        return "aos-in-hot-path";
    case Kind::UnguardedSharedWrite:
        return "unguarded-shared-write";
    case Kind::RequiresLockCall:
        return "requires-lock-call";
    case Kind::TaintedSink:
        return "tainted-sink";
    }
    return "unknown";
}

std::vector<Diagnostic>
analyzeFiles(const std::vector<std::string> &files, const Options &options)
{
    Model model;
    for (const std::string &path : files)
        parseFile(lexFile(path), model, options);

    std::vector<Diagnostic> diags;
    if (options.determinismCheck) {
        checkDeterminism(model, diags);
        diags.insert(diags.end(), model.tokenDiags.begin(),
                     model.tokenDiags.end());
    }
    if (options.aosCheck)
        checkAosHotPath(model, diags);
    if (options.locksetCheck)
        checkLockset(model, diags);
    if (options.taintCheck)
        checkTaint(model, diags);

    auto key = [](const Diagnostic &d) {
        return std::tie(d.file, d.line, d.message);
    };
    std::stable_sort(diags.begin(), diags.end(),
                     [&](const Diagnostic &a, const Diagnostic &b) {
                         return key(a) < key(b);
                     });
    diags.erase(std::unique(diags.begin(), diags.end(),
                            [&](const Diagnostic &a, const Diagnostic &b) {
                                return key(a) == key(b);
                            }),
                diags.end());
    return diags;
}

std::string
formatDiagnostic(const Diagnostic &diag)
{
    std::ostringstream os;
    os << diag.file << ':' << diag.line << ": [" << kindName(diag.kind)
       << "] " << diag.message;
    if (!diag.chain.empty()) {
        os << "\n  call chain:";
        std::string indent = "\n    ";
        for (const std::string &hop : diag.chain) {
            os << indent << hop;
            indent += "  ";
        }
    }
    return os.str();
}

namespace {

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::string
formatDiagnosticsJson(const std::vector<Diagnostic> &diags)
{
    std::string out = "[";
    for (std::size_t k = 0; k < diags.size(); ++k) {
        const Diagnostic &d = diags[k];
        out += k == 0 ? "\n" : ",\n";
        out += "  {\"file\": ";
        appendJsonString(out, d.file);
        out += ", \"line\": " + std::to_string(d.line);
        out += ", \"kind\": ";
        appendJsonString(out, kindName(d.kind));
        out += ", \"message\": ";
        appendJsonString(out, d.message);
        out += ", \"chain\": [";
        for (std::size_t h = 0; h < d.chain.size(); ++h) {
            if (h != 0)
                out += ", ";
            appendJsonString(out, d.chain[h]);
        }
        out += "]}";
    }
    out += diags.empty() ? "]\n" : "\n]\n";
    return out;
}

} // namespace photon::lint
