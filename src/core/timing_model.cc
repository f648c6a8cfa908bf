#include "core/timing_model.hh"

#include "common/log.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"

namespace raceval::core
{

namespace
{

const ModelFamilyInfo &
familyInfo(ModelFamily family)
{
    size_t index = static_cast<size_t>(family);
    RV_ASSERT(index < numModelFamilies, "unknown timing-model family %zu",
              index);
    return modelFamilies()[index];
}

} // namespace

const std::array<ModelFamilyInfo, numModelFamilies> &
modelFamilies()
{
    // The salts are persisted-cache ABI: EvalCache files key entries
    // on them, so they must never change once shipped.
    static constexpr std::array<ModelFamilyInfo, numModelFamilies> table{{
        {ModelFamily::InOrder, "inorder",
         "A53-class dual-issue stall-on-use in-order core",
         0x696e6f72646572ull},
        {ModelFamily::Ooo, "ooo",
         "A72-class windowed out-of-order core (ROB/IQ/LQ/SQ)",
         0x6f6f6f636f7265ull},
        {ModelFamily::Interval, "interval",
         "Sniper-style interval core (dispatch-width intervals + "
         "miss/mispredict windows)",
         0x696e74657276616cull},
    }};
    return table;
}

std::unique_ptr<TimingModel>
makeTimingModel(ModelFamily family, const CoreParams &params)
{
    switch (family) {
      case ModelFamily::InOrder:
        return std::make_unique<InOrderCore>(params);
      case ModelFamily::Ooo:
        return std::make_unique<OooCore>(params);
      case ModelFamily::Interval:
        return std::make_unique<IntervalCore>(params);
    }
    panic("unknown timing-model family %d", static_cast<int>(family));
}

const char *
modelFamilyName(ModelFamily family)
{
    return familyInfo(family).name;
}

uint64_t
modelFamilySalt(ModelFamily family)
{
    return familyInfo(family).fingerprintSalt;
}

bool
parseModelFamily(const std::string &name, ModelFamily &out)
{
    for (const ModelFamilyInfo &info : modelFamilies()) {
        if (name == info.name) {
            out = info.family;
            return true;
        }
    }
    return false;
}

} // namespace raceval::core
