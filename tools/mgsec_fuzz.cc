/**
 * @file
 * mgsec_fuzz — randomized adversarial campaigns over the secure
 * channel, suitable as a CI smoke gate.
 *
 *   mgsec_fuzz --budget 60 --seed 7          # one timed campaign
 *   mgsec_fuzz --max-runs 40 --seed 7        # deterministic run cap
 *   mgsec_fuzz --repro "v1;seed=..;..."      # replay one case
 *   mgsec_fuzz --inject-bug counterskip ...  # oracle mutation check
 *
 * On failure the shrunk repro string and the findings go to stdout
 * and, with --artifact PATH, to a file CI can upload; `--help` gives
 * the exit statuses.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/flags.hh"
#include "verify/fuzz.hh"

namespace
{

using namespace mgsec::verify;

void
printFindings(const std::vector<Finding> &findings, std::FILE *out)
{
    for (const Finding &f : findings) {
        std::fprintf(out, "  [%s] %s\n", findingKindName(f.kind),
                     f.detail.c_str());
    }
}

void
writeArtifact(const std::string &path, const std::string &repro,
              const std::vector<Finding> &findings)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write artifact %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "repro: %s\n", repro.c_str());
    printFindings(findings, f);
    std::fclose(f);
}

int
replayRepro(const std::string &repro, const std::string &artifact)
{
    TestbedConfig cfg;
    if (!decodeRepro(repro, cfg)) {
        std::fprintf(stderr, "malformed repro string\n");
        return 2;
    }
    const CaseOutcome oc = runCase(cfg);
    std::printf("repro: %s\n", encodeRepro(cfg).c_str());
    std::printf("attacks=%llu steps=%zu/%zu delivered=%llu "
                "findings=%zu\n",
                static_cast<unsigned long long>(
                    oc.result.attacksMounted),
                oc.result.stepsFired, cfg.script.size(),
                static_cast<unsigned long long>(oc.result.delivered),
                oc.result.findings.size());
    for (const std::string &a : oc.result.attackLog)
        std::printf("  attack: %s\n", a.c_str());
    for (const std::string &n : oc.result.neutralized)
        std::printf("  neutralized: %s\n", n.c_str());
    printFindings(oc.result.findings, stdout);
    if (oc.failed && !artifact.empty())
        writeArtifact(artifact, repro, oc.result.findings);
    return oc.failed ? 1 : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CampaignConfig cc;
    cc.budgetSeconds = 0;
    std::string repro;
    std::string artifact;

    using namespace mgsec;
    Flags("usage: mgsec_fuzz [options]\n"
          "Exit status: 0 when every case passed (with --inject-bug: "
          "when the oracle\ncaught the bug), 1 on a failure, 2 on a "
          "usage error. --topology is part\nof the repro; --sim-threads "
          "is not (repros still replay serially).\n\n")
        .add(numberFlag("budget", "SECONDS",
                        "wall-clock budget (default 60 when neither\n"
                        "--budget nor --max-runs is given)",
                        cc.budgetSeconds, 0.0, 1e9))
        .add(numberFlag("seed", "N", "campaign seed (default 1)", cc.seed,
                        0, UINT64_MAX))
        .add(numberFlag("max-runs", "N",
                        "deterministic cap on generated cases", cc.maxRuns,
                        0u, UINT32_MAX))
        .add(textFlag("repro", "STRING",
                      "replay one case from its repro string", repro))
        .add({"inject-bug", "BUG",
              "counterskip|stalecipher: the campaign must catch it",
              [&cc](const std::string &v) {
                  return parseSeededBug(v, cc.injectBug) &&
                         cc.injectBug != SeededBug::None;
              }})
        .add(textFlag("artifact", "PATH",
                      "write the repro and findings here on failure",
                      artifact))
        .add(simThreadsFlag(cc.simThreads))
        .add(topologyFlag(cc.topology.kind))
        .add(numberFlag("nodes", "N",
                        "fix the node count of every case\n"
                        "(default: generator's choice, 2..4)",
                        cc.numNodes, 2u, kMaxTestbedNodes))
        .add(switchFlag("verbose", "print a line per case", cc.verbose))
        .parseOrExit(argc, argv);

    if (!repro.empty())
        return replayRepro(repro, artifact);

    if (cc.budgetSeconds <= 0 && cc.maxRuns == 0)
        cc.budgetSeconds = 60;

    const CampaignResult r = runCampaign(cc);
    std::printf("campaign: seed=%llu runs=%llu attacks=%llu "
                "coverage=%zu\n",
                static_cast<unsigned long long>(cc.seed),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.attacksMounted),
                r.coverage);

    if (cc.injectBug != SeededBug::None) {
        // Mutation check: the campaign must CATCH the seeded channel
        // bug — an all-green result means the oracle went blind.
        if (!r.failed) {
            std::printf("MUTATION CHECK FAILED: seeded bug '%s' was "
                        "never caught\n",
                        seededBugName(cc.injectBug));
            if (!artifact.empty())
                writeArtifact(artifact, "(no failing case)", {});
            return 1;
        }
        std::printf("seeded bug '%s' caught; repro: %s\n",
                    seededBugName(cc.injectBug), r.repro.c_str());
        printFindings(r.findings, stdout);
        return 0;
    }

    if (r.failed) {
        std::printf("FAILURE; shrunk repro: %s\n", r.repro.c_str());
        printFindings(r.findings, stdout);
        if (!artifact.empty())
            writeArtifact(artifact, r.repro, r.findings);
        return 1;
    }
    std::printf("all cases passed\n");
    return 0;
}
