/**
 * @file
 * The CXL fabric context: the shared device plus fabric-level services
 * (the content-addressed page pool, the in-CXL shared filesystem) and
 * accounting.
 */

#pragma once

#include <memory>

#include "coherence.hh"
#include "fabric_queue.hh"
#include "link_health.hh"
#include "mem/machine.hh"
#include "page_store.hh"
#include "ras.hh"
#include "shared_fs.hh"
#include "sim/stats.hh"

namespace cxlfork::cxl {

/** Fabric-wide shared state for a cluster of nodes. */
class CxlFabric
{
  public:
    explicit CxlFabric(mem::Machine &machine, PageStoreConfig pageStoreCfg = {},
                       RasConfig rasCfg = {}, CoherenceConfig coherenceCfg = {},
                       LinkHealthConfig linkCfg = {},
                       FabricQueueConfig queueCfg = {})
        : machine_(machine), pageStore_(machine, pageStoreCfg),
          ras_(machine, pageStore_, rasCfg), sharedFs_(machine, pageStore_)
    {
        // The RAS ctor installs the machine's Repair stage when
        // enabled; the store hook makes interned pages flow through it.
        pageStore_.attachRas(&ras_);
        // The directory ctor installs the machine's Coherence stage;
        // with mode Off none is built and every access path
        // stays bit-identical to the pre-coherence tree.
        if (coherenceCfg.mode != CoherenceMode::Off) {
            coherence_ = std::make_unique<CoherenceDirectory>(machine,
                                                              coherenceCfg);
        }
        // The link-health ctor installs the machine's Link stage when
        // enabled; reroutes consult the RAS replica placement, so
        // keep the domain striping aligned with the RAS config.
        if (linkCfg.enabled) {
            if (rasCfg.enabled)
                linkCfg.domains = rasCfg.faultDomains;
            linkHealth_ =
                std::make_unique<LinkHealth>(machine, ras_, linkCfg);
        }
        // The queue-model ctor installs the machine-level fabric queue
        // when enabled; its port striping follows the same domain
        // alignment as the link/RAS layers so a rerouted replica read
        // queues on the domain that actually serves it.
        if (queueCfg.enabled) {
            if (rasCfg.enabled)
                queueCfg.domains = rasCfg.faultDomains;
            fabricQueue_ =
                std::make_unique<FabricQueueModel>(machine, queueCfg);
        }
    }

    CxlFabric(const CxlFabric &) = delete;
    CxlFabric &operator=(const CxlFabric &) = delete;

    mem::Machine &machine() { return machine_; }
    mem::FrameAllocator &device() { return machine_.cxl(); }
    PageStore &pageStore() { return pageStore_; }
    RasManager &ras() { return ras_; }
    SharedFs &sharedFs() { return sharedFs_; }

    /** The coherence directory, or nullptr when mode is Off. */
    CoherenceDirectory *coherence() { return coherence_.get(); }

    /** The link-health manager, or nullptr when disabled. */
    LinkHealth *linkHealth() { return linkHealth_.get(); }

    /** The fabric queuing model, or nullptr when disabled. */
    FabricQueueModel *fabricQueue() { return fabricQueue_.get(); }
    sim::StatSet &stats() { return stats_; }

    /** Device capacity consumed, across checkpoints and files. */
    uint64_t usedBytes() const { return machine_.cxl().usedBytes(); }
    uint64_t freeBytes() const { return machine_.cxl().freeBytes(); }

  private:
    mem::Machine &machine_;
    PageStore pageStore_; ///< Before sharedFs_: the FS writes through it.
    RasManager ras_;      ///< Before sharedFs_: FS pages may be protected.
    SharedFs sharedFs_;
    std::unique_ptr<CoherenceDirectory> coherence_;
    std::unique_ptr<LinkHealth> linkHealth_; ///< After ras_: reroutes
                                             ///< read its replica map.
    std::unique_ptr<FabricQueueModel> fabricQueue_;
    sim::StatSet stats_;
};

} // namespace cxlfork::cxl
