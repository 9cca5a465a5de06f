#include "verify/verify_types.hh"

namespace mgsec::verify
{

namespace
{

constexpr const char *kAttackNames[kNumAttackClasses] = {
    "Replay",         "PayloadFlip", "MacFlip",   "HeaderFlip",
    "TrailerCorrupt", "LengthCorrupt", "AckDrop", "AckDup",
    "AckReorder",     "Splice",      "DataDrop",
};

} // anonymous namespace

const char *
attackClassName(AttackClass c)
{
    const auto i = static_cast<std::size_t>(c);
    return i < kNumAttackClasses ? kAttackNames[i] : "?";
}

bool
parseAttackClass(const std::string &text, AttackClass &out)
{
    for (std::size_t i = 0; i < kNumAttackClasses; ++i) {
        if (text == kAttackNames[i]) {
            out = static_cast<AttackClass>(i);
            return true;
        }
    }
    return false;
}

const char *
findingKindName(FindingKind k)
{
    switch (k) {
      case FindingKind::Divergence:
        return "Divergence";
      case FindingKind::CounterAnomaly:
        return "CounterAnomaly";
      case FindingKind::CryptoMismatch:
        return "CryptoMismatch";
      case FindingKind::LostVerification:
        return "LostVerification";
      case FindingKind::UndetectedAttack:
        return "UndetectedAttack";
      case FindingKind::LostMessage:
        return "LostMessage";
    }
    return "?";
}

const char *
seededBugName(SeededBug b)
{
    switch (b) {
      case SeededBug::None:
        return "none";
      case SeededBug::CounterSkip:
        return "counterskip";
      case SeededBug::StaleCipher:
        return "stalecipher";
    }
    return "?";
}

bool
parseSeededBug(const std::string &text, SeededBug &out)
{
    for (SeededBug b : {SeededBug::None, SeededBug::CounterSkip,
                        SeededBug::StaleCipher}) {
        if (text == seededBugName(b)) {
            out = b;
            return true;
        }
    }
    return false;
}

} // namespace mgsec::verify
