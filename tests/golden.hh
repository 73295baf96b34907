/**
 * @file
 * The committed golden corpora under tests/golden/.
 *
 * Each corpus holds one line per case: a key (the line's first token),
 * then the case's result or a digest of it. Identity tests compare
 * every engine, job count and chunk size against that line instead of
 * against a retained slow reference implementation:
 *
 *  - predict.txt: %.17g predictions (test_predict_golden);
 *  - profile.txt: byte length and CRC32C of the RPPMPRF-serialized
 *    profile (test_profile_parallel records it);
 *  - sim.txt: byte length and CRC32C of the hexfloat SimResult dump,
 *    then the %.17g totals (test_sim_parallel records it);
 *  - trace.txt: byte length and CRC32C of the synthesized trace's
 *    RPPMTRC serialization (test_trace_columnar records it).
 *
 * Regenerate a corpus only in a change that alters results on purpose,
 * and say there why every changed line changed. The recorder test of
 * each corpus rewrites it when RPPM_GOLDEN_WRITE names the file:
 *
 *   RPPM_GOLDEN_WRITE=$PWD/tests/golden/<corpus>.txt \
 *       build/tests/<recorder> --gtest_filter='*Golden*'
 */

#ifndef RPPM_TESTS_GOLDEN_HH
#define RPPM_TESTS_GOLDEN_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.hh"

#ifndef RPPM_GOLDEN_DIR
#error "RPPM_GOLDEN_DIR must name the directory holding the corpora"
#endif

namespace rppm::golden {

/** Path of corpus @p name (e.g. "profile.txt"). */
inline std::string
path(const std::string &name)
{
    return std::string(RPPM_GOLDEN_DIR) + "/" + name;
}

/** Lines of corpus @p name by key; comment lines start with '#'. */
inline std::map<std::string, std::string>
load(const std::string &name)
{
    std::map<std::string, std::string> corpus;
    std::ifstream in(path(name));
    std::string text;
    while (std::getline(in, text)) {
        if (text.empty() || text[0] == '#')
            continue;
        corpus.emplace(text.substr(0, text.find(' ')), text);
    }
    return corpus;
}

/** Where to record corpus @p name: RPPM_GOLDEN_WRITE when it names a
 *  file called @p name, else empty (check mode). */
inline std::string
writePath(const std::string &name)
{
    // rppm-lint: rng-ok(selects the output file, never a result)
    const char *target = std::getenv("RPPM_GOLDEN_WRITE");
    if (!target || std::filesystem::path(target).filename() != name)
        return {};
    return target;
}

/** Write a recorded corpus: @p header comment lines, then @p lines. */
inline bool
write(const std::string &target, const std::string &header,
      const std::vector<std::string> &lines)
{
    std::ofstream out(target);
    out << header;
    for (const std::string &text : lines)
        out << text << "\n";
    return out.good();
}

/** "<key> <byte length> <crc32c>" of the serialization @p bytes. */
inline std::string
digest(const std::string &key, const std::string &bytes)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %zu %08x", bytes.size(),
                  crc32c(bytes.data(), bytes.size()));
    return key + buf;
}

} // namespace rppm::golden

#endif // RPPM_TESTS_GOLDEN_HH
