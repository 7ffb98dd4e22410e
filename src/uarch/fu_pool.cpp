#include "uarch/fu_pool.hh"

#include "common/logging.hh"

namespace mg {

FuPool::FuPool(const FuPoolConfig &c, int width) : cfg(c), issueWidth(width)
{
    for (int i = 0; i < cfg.aluPipes; ++i)
        pipes_.emplace_back(cfg.aluPipeDepth);
}

void
FuPool::claimFailed()
{
    panic("FuPool claim without a successful probe");
}

} // namespace mg
