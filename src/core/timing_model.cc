#include "core/timing_model.hh"

#include "common/log.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"

namespace raceval::core
{

namespace
{

template <typename Model>
std::unique_ptr<TimingModel>
makeModel(const CoreParams &params)
{
    return std::make_unique<Model>(params);
}

} // namespace

TimingModelRegistry::TimingModelRegistry()
{
    // The salts are persisted-cache ABI: EvalCache files key entries
    // on them, so they must never change once shipped.
    registerFamily({ModelFamily::InOrder, "inorder",
                    "A53-class dual-issue stall-on-use in-order core",
                    0x696e6f72646572ull, &makeModel<InOrderCore>});
    registerFamily({ModelFamily::Ooo, "ooo",
                    "A72-class windowed out-of-order core "
                    "(ROB/IQ/LQ/SQ)",
                    0x6f6f6f636f7265ull, &makeModel<OooCore>});
    registerFamily({ModelFamily::Interval, "interval",
                    "Sniper-style interval core (dispatch-width "
                    "intervals + miss/mispredict windows)",
                    0x696e74657276616cull, &makeModel<IntervalCore>});
}

TimingModelRegistry &
TimingModelRegistry::instance()
{
    static TimingModelRegistry registry;
    return registry;
}

void
TimingModelRegistry::registerFamily(const TimingModelInfo &info)
{
    RV_ASSERT(info.make != nullptr, "timing model '%s' has no factory",
              info.name);
    for (const TimingModelInfo &existing : entries) {
        RV_ASSERT(std::string(existing.name) != info.name,
                  "duplicate timing model name '%s'", info.name);
        RV_ASSERT(existing.fingerprintSalt != info.fingerprintSalt,
                  "timing model '%s' reuses the cache salt of '%s'",
                  info.name, existing.name);
    }
    entries.push_back(info);
}

const TimingModelInfo &
TimingModelRegistry::info(ModelFamily family) const
{
    for (const TimingModelInfo &entry : entries) {
        if (entry.family == family)
            return entry;
    }
    panic("unregistered timing-model family %d",
          static_cast<int>(family));
}

const TimingModelInfo *
TimingModelRegistry::find(const std::string &name) const
{
    for (const TimingModelInfo &entry : entries) {
        if (name == entry.name)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<TimingModel>
makeTimingModel(ModelFamily family, const CoreParams &params)
{
    return TimingModelRegistry::instance().info(family).make(params);
}

const char *
modelFamilyName(ModelFamily family)
{
    return TimingModelRegistry::instance().info(family).name;
}

uint64_t
modelFamilySalt(ModelFamily family)
{
    return TimingModelRegistry::instance().info(family).fingerprintSalt;
}

bool
parseModelFamily(const std::string &name, ModelFamily &out)
{
    const TimingModelInfo *entry =
        TimingModelRegistry::instance().find(name);
    if (!entry)
        return false;
    out = entry->family;
    return true;
}

} // namespace raceval::core
