// mglint fixture: a deliberately drifted serialize/deserialize pair —
// `epoch` is written but never restored, `spare` restored but never
// written. Exactly the checkpoint-store format drift MGCK records
// must never ship with.

#include "common/serial.hh"

struct DriftRecord
{
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t spare = 0;
    std::uint64_t weight = 0;
};

void
serializeDriftRecord(const DriftRecord &c, mg::SerialWriter &w)
{
    w.u64(c.id);
    w.u64(c.epoch);
    w.u64(c.weight);
}

bool
deserializeDriftRecord(mg::SerialReader &r, DriftRecord &c)
{
    c.id = r.u64();
    c.spare = r.u64();
    c.weight = r.u64();
    return r.ok();
}

struct SteadyRecord
{
    std::uint64_t id = 0;
    std::uint64_t weight = 0;
};

void
serializeSteadyRecord(const SteadyRecord &c, mg::SerialWriter &w)
{
    w.u64(c.id);
    w.u64(c.weight);
}

bool
deserializeSteadyRecord(mg::SerialReader &r, SteadyRecord &c)
{
    c.id = r.u64();
    c.weight = r.u64();
    return r.ok();   // clean: same member set on both sides
}
