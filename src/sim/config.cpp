#include "sim/config.hh"

namespace mg {

SimConfig
SimConfig::baseline()
{
    SimConfig c;
    c.name = "baseline";
    return c;
}

SimConfig
SimConfig::intMg(bool collapsing)
{
    SimConfig c;
    c.name = collapsing ? "int+collapsing" : "int";
    c.useMiniGraphs = true;
    c.core.enableMiniGraphs();
    c.policy.allowMemory = false;
    c.machine.collapsing = collapsing;
    return c;
}

SimConfig
SimConfig::intMemMg(bool collapsing)
{
    SimConfig c;
    c.name = collapsing ? "int-mem+collapsing" : "int-mem";
    c.useMiniGraphs = true;
    c.core.enableMiniGraphs();
    c.policy.allowMemory = true;
    c.machine.collapsing = collapsing;
    return c;
}

} // namespace mg
