/**
 * @file
 * mglint — the project's determinism-contract linter.
 *
 * Every published result rests on bit-identical stats across job
 * counts and sessions; mglint machine-checks the
 * source-level invariants that contract depends on, with a light
 * hand-rolled tokenizer (no libclang) so it builds anywhere the
 * simulator does. Rules (IDs are stable; see docs/ARCHITECTURE.md
 * "Determinism contract"):
 *
 *   banned-rand      nondeterminism sources: rand()/srand()/rand_r()/
 *                    drand48(), std::random_device, time(), clock().
 *                    Seeded streams must come from common/rng.hh.
 *   ptr-key          std::map/std::set keyed by a pointer type:
 *                    iteration order = address order = ASLR noise.
 *   unordered-iter   iteration (range-for or .begin()) over a
 *                    std::unordered_* container: hash order is
 *                    implementation- and seed-dependent, so anything
 *                    it feeds (stats, JSON, serialization, eviction,
 *                    aggregation) must iterate a sorted view instead.
 *   serial-parity    a serialize/deserialize pair references
 *                    different member sets of the struct it encodes —
 *                    the checkpoint-store format has drifted.
 *   format-version   a file defines a record magic but never mentions
 *                    a format version: new serialized records must
 *                    carry (and check) one.
 *
 * Suppression: `// mglint:allow(rule[,rule...]): justification` on
 * the finding's line or the line above. `mglint:allow-file(rule)`
 * anywhere in a file suppresses the rule file-wide.
 */

#ifndef MGLINT_LINT_HH
#define MGLINT_LINT_HH

#include <string>
#include <vector>

namespace mglint {

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct LintResult
{
    std::vector<Finding> findings;   ///< sorted by (file, line, rule)
    int filesScanned = 0;
    int suppressed = 0;              ///< findings silenced by allow()
};

/** Names and one-line descriptions of every rule, for --list-rules. */
std::vector<std::pair<std::string, std::string>> ruleCatalog();

/**
 * Lint @p files (each a path to a C++ source/header). Cross-file
 * state (struct member tables, unordered-container names) is built
 * over the whole set, so pass every file of interest in one call.
 */
LintResult lintFiles(const std::vector<std::string> &files);

/** Recursively collect .cpp/.cc/.hh/.h files under @p roots (files
 *  pass through verbatim), sorted for deterministic reports. */
std::vector<std::string> collectSources(
    const std::vector<std::string> &roots);

/** Machine-readable report. */
std::string findingsJson(const LintResult &r);

} // namespace mglint

#endif // MGLINT_LINT_HH
