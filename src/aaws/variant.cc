#include "aaws/variant.h"

#include "common/logging.h"

namespace aaws {

const std::vector<Variant> &
allVariants()
{
    static const std::vector<Variant> variants = {
        Variant::base, Variant::base_p, Variant::base_ps,
        Variant::base_psm, Variant::base_m,
    };
    return variants;
}

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::base:
        return "base";
      case Variant::base_p:
        return "base+p";
      case Variant::base_ps:
        return "base+ps";
      case Variant::base_psm:
        return "base+psm";
      case Variant::base_m:
        return "base+m";
    }
    panic("bad variant");
}

Variant
variantFromName(const std::string &name)
{
    for (Variant v : allVariants())
        if (name == variantName(v))
            return v;
    fatal("unknown variant '%s'", name.c_str());
}

sched::PolicyConfig
policyConfigFor(Variant v)
{
    sched::PolicyConfig sp;
    // The baseline is aggressive: serial-sprinting and work-biasing are
    // always on (Section III-C).
    sp.serial_sprinting = true;
    sp.work_biasing = true;
    sp.work_pacing = v == Variant::base_p || v == Variant::base_ps ||
                     v == Variant::base_psm;
    sp.work_sprinting = v == Variant::base_ps || v == Variant::base_psm;
    sp.work_mugging = v == Variant::base_psm || v == Variant::base_m;
    return sp;
}

} // namespace aaws
