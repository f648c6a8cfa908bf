/**
 * @file
 * Golden check over the --smoke result blobs of the paper drivers.
 *
 * `golden_check <goldens.txt> <blob-dir>` reads, for every
 * `<driver> <digest>` line of the goldens file, the blob
 * `<blob-dir>/BENCH_<driver>.json` and fails when:
 *
 *   - the blob is missing, was not a --smoke run, or has no "metrics"
 *     object;
 *   - the digest of its "metrics" object differs from the committed
 *     one.
 *
 * The digest covers only the result fields: every (name, value) pair
 * of the "metrics" object, with the value exactly as the blob prints
 * it (%.17g, so one flipped bit of a double moves the digest).
 * wall_seconds and the "engine" stats block are left out -- they move
 * with the host, not with the results.
 *
 * `golden_check --update <goldens.txt> <blob-dir>` rewrites the
 * digests of the drivers the file already lists, for a change that is
 * meant to move the results.
 *
 * Run as a plain binary after the smoke_* ctest fixtures; not a bench
 * driver (no --smoke/--json protocol).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace
{

using Metrics = std::vector<std::pair<std::string, std::string>>;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

size_t
skipSpace(const std::string &text, size_t pos)
{
    while (pos < text.size()
           && std::strchr(" \t\r\n", text[pos]) != nullptr)
        ++pos;
    return pos;
}

/** Parse the flat "metrics" object of a result blob into (name, raw
 *  value text) pairs, in blob order. @return false when malformed. */
bool
parseMetrics(const std::string &text, Metrics &out)
{
    size_t pos = text.find("\"metrics\":");
    if (pos == std::string::npos)
        return false;
    pos = skipSpace(text, pos + std::strlen("\"metrics\":"));
    if (pos >= text.size() || text[pos] != '{')
        return false;
    pos = skipSpace(text, pos + 1);
    while (pos < text.size() && text[pos] != '}') {
        if (text[pos] != '"')
            return false;
        std::string name;
        for (++pos; pos < text.size() && text[pos] != '"'; ++pos) {
            if (text[pos] == '\\' && pos + 1 < text.size())
                ++pos;
            name += text[pos];
        }
        pos = skipSpace(text, pos + 1);
        if (pos >= text.size() || text[pos] != ':')
            return false;
        pos = skipSpace(text, pos + 1);
        size_t end = pos;
        while (end < text.size()
               && std::strchr(",} \t\r\n", text[end]) == nullptr)
            ++end;
        if (end == pos)
            return false;
        out.emplace_back(name, text.substr(pos, end - pos));
        pos = skipSpace(text, end);
        if (pos < text.size() && text[pos] == ',')
            pos = skipSpace(text, pos + 1);
    }
    return pos < text.size();
}

/** FNV-1a 64 over "name=value\n" lines. */
uint64_t
digest(const Metrics &metrics)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, value] : metrics)
        feed(name + "=" + value + "\n");
    return h;
}

/** Digest one driver's smoke blob. @return false (with a message)
 *  when the blob is unusable. */
bool
blobDigest(const std::string &dir, const std::string &driver,
           uint64_t &out, Metrics &metrics)
{
    std::string path = dir + "/BENCH_" + driver + ".json";
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "golden_check: cannot read '%s' (run the "
                     "smoke_%s test first)\n", path.c_str(),
                     driver.c_str());
        return false;
    }
    if (text.find("\"smoke\": true") == std::string::npos) {
        std::fprintf(stderr, "golden_check: '%s' is not a --smoke "
                     "blob\n", path.c_str());
        return false;
    }
    if (!parseMetrics(text, metrics) || metrics.empty()) {
        std::fprintf(stderr, "golden_check: '%s' has no readable "
                     "\"metrics\" object\n", path.c_str());
        return false;
    }
    out = digest(metrics);
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--update] <goldens.txt> <blob-dir>\n"
                 "fails when a smoke blob's result digest drifts from "
                 "the committed one\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
        usage(argv[0]);
        return 0;
    }
    bool update = argc == 4 && std::strcmp(argv[1], "--update") == 0;
    if (argc != 3 && !update)
        return usage(argv[0]);
    std::string goldens_path = argv[argc - 2];
    std::string dir = argv[argc - 1];

    std::string goldens;
    if (!readFile(goldens_path, goldens)) {
        std::fprintf(stderr, "golden_check: cannot read '%s'\n",
                     goldens_path.c_str());
        return 2;
    }

    std::istringstream lines(goldens);
    std::string line, rewritten;
    int checked = 0, failures = 0;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string driver, hex;
        if (line.empty() || line[0] == '#' || !(fields >> driver >> hex)) {
            rewritten += line + "\n";
            continue;
        }
        uint64_t got = 0;
        Metrics metrics;
        if (!blobDigest(dir, driver, got, metrics)) {
            ++failures;
            rewritten += line + "\n";
            continue;
        }
        char got_hex[17];
        std::snprintf(got_hex, sizeof(got_hex), "%016llx",
                      static_cast<unsigned long long>(got));
        rewritten += driver + " " + got_hex + "\n";
        ++checked;
        if (update || hex == got_hex)
            continue;
        std::fprintf(stderr, "golden_check: FAIL %s: digest %s, golden "
                     "%s; its metrics now read:\n", driver.c_str(),
                     got_hex, hex.c_str());
        for (const auto &[name, value] : metrics)
            std::fprintf(stderr, "    %s = %s\n", name.c_str(),
                         value.c_str());
        ++failures;
    }
    if (checked == 0 && failures == 0) {
        std::fprintf(stderr, "golden_check: '%s' lists no drivers\n",
                     goldens_path.c_str());
        return 2;
    }
    if (failures)
        return 1;
    if (update) {
        std::ofstream out(goldens_path);
        out << rewritten;
        if (!out) {
            std::fprintf(stderr, "golden_check: cannot write '%s'\n",
                         goldens_path.c_str());
            return 2;
        }
        std::printf("golden_check: %d digests written to %s\n", checked,
                    goldens_path.c_str());
        return 0;
    }
    std::printf("golden_check: OK (%d smoke blobs match their "
                "goldens)\n", checked);
    return 0;
}
