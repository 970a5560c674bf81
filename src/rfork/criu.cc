#include "criu.hh"

#include "prefetch.hh"
#include "sim/error.hh"
#include "sim/log.hh"
#include "state_capture.hh"

namespace cxlfork::rfork {

using mem::kPageSize;
using os::Pte;
using sim::SimTime;

std::shared_ptr<CheckpointHandle>
CriuCxl::checkpoint(os::NodeOs &node, os::Task &parent,
                    CheckpointStats *stats)
{
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = node.clock();
    const SimTime start = clock.now();
    CheckpointStats cs;

    sim::SpanScope ckptSpan = machine.tracer().span(
        clock, node.id(), "criu.checkpoint", "rfork.checkpoint");
    ckptSpan.attr("task", parent.name());

    // The handle exists (and is staged, under checkpointPublished)
    // before the image file does: a crash mid-serialization or
    // mid-write leaves a discoverable, incomplete orphan whose
    // reclamation also removes whatever part of the file landed.
    const std::string name = sim::format("criu/%s.%llu.img",
                                         parent.name().c_str(),
                                         (unsigned long long)nextImageId_++);
    auto handle = std::make_shared<CriuHandle>(name, &fabric_.sharedFs());
    stageHandle(handle, node);

    // Serialize everything: global state, CPU, VMAs, page map + data.
    proto::CriuImageMsg image;
    image.global = captureGlobalState(parent);
    image.cpu.gpr = parent.cpu().gpr;
    image.cpu.rip = parent.cpu().rip;
    image.cpu.rsp = parent.cpu().rsp;
    image.cpu.fpstate = parent.cpu().fpstate;
    image.vmas = captureVmas(parent);

    parent.mm().pageTable().forEachLeaf(
        [&](uint64_t baseVpn, os::TablePage &leaf) {
            for (uint32_t i = 0; i < os::TablePage::kEntries; ++i) {
                const Pte &pte = leaf.pte(i);
                if (!pte.present())
                    continue;
                proto::PageMsg p;
                p.vpn = baseVpn + i;
                p.content = fabric_.machine().frame(pte.frame()).content;
                image.pages.push_back(p);
            }
        });

    proto::Encoder enc;
    image.encode(enc);
    const uint64_t simBytes = image.simulatedBytes();
    const uint64_t records = image.recordCount();
    clock.advance(costs.serializeCost(simBytes) +
                  costs.serializeRecord * double(records));

    // Cache the image files in the shared in-CXL filesystem (the write
    // cost is charged by SharedFs).
    machine.faults().crashPoint("criu.serialize");
    const cxl::CxlFsFile &file =
        fabric_.sharedFs().write(name, enc.take(), simBytes, clock,
                                 node.id());
    // The image file's cache frames (possibly shared with other images
    // through the page store) go on the STAGED manifest so a crash
    // between here and publish releases them exactly once.
    for (mem::PhysAddr f : file.frames) {
        manifestPage(node, f);
        // Publish the page-cache frames through the coherence
        // directory (no-op without one): restores on other nodes must
        // observe the image bytes, not a stale zero token.
        machine.publishFrame(f, node.id(), clock);
    }
    handle->setContents(simBytes, image.pages.size(), records);
    machine.faults().crashPoint("criu.commit");
    handle->markCommitted();

    cs.latency = clock.now() - start;
    cs.pages = image.pages.size();
    cs.vmas = image.vmas.size();
    cs.bytesToCxl = simBytes;
    ckptSpan.attr("pages", cs.pages).attr("bytes_to_cxl", cs.bytesToCxl);
    checkpointsCounter_->inc();
    checkpointLatency_->record(cs.latency);
    if (stats)
        *stats = cs;
    ckptNodeStat_.on(node).inc();
    return handle;
}

std::shared_ptr<os::Task>
CriuCxl::restore(const std::shared_ptr<CheckpointHandle> &handle,
                 os::NodeOs &target, const RestoreOptions &opts,
                 RestoreStats *stats)
{
    auto h = std::dynamic_pointer_cast<CriuHandle>(handle);
    if (!h)
        sim::fatal("handle is not a CRIU image");
    mem::Machine &machine = fabric_.machine();
    const sim::CostParams &costs = machine.costs();
    sim::SimClock &clock = target.clock();
    const SimTime start = clock.now();
    RestoreStats rs;

    sim::SpanScope restoreSpan = machine.tracer().span(
        clock, target.id(), "criu.restore", "rfork.restore");
    restoreSpan.attr("image", h->fileName());

    sim::SpanScope readSpan = machine.tracer().span(
        clock, target.id(), "restore.read_image", "rfork.phase");
    const cxl::CxlFsFile *file = fabric_.sharedFs().open(h->fileName());
    if (!file)
        sim::fatal("CRIU image %s missing", h->fileName().c_str());
    // The bulk image read machine-checks on poisoned page-cache frames
    // exactly like the other mechanisms' page reads: a poisoned frame
    // goes through the checked-read chokepoint, which gives an
    // installed RAS manager its repair chance before the typed error
    // escalates. The scan peeks at the poison bit directly so the
    // clean-frame case (every run without poison injection) charges
    // nothing and touches no counters.
    // With the codec pipeline armed every image page pays its one-time
    // decompress on this bulk read (the checked read routes it through
    // the codec stage); off, the scan stays peek-only and free.
    const bool compressed = fabric_.pageStore().compressEnabled();
    for (mem::PhysAddr fr : file->frames) {
        if (machine.frame(fr).poisoned || compressed) {
            machine.readFrameChecked(fr, clock, "criu image read",
                                     target.id());
        } else {
            // The eager bulk read still occupies the device port page
            // by page — this is precisely where an up-front copy loses
            // to lazy faults under contention. The checked read above
            // already routes through the queue; the clean-frame path
            // is port-only so it mints no crash site and stays free
            // when the queue is off.
            machine.portTransaction(
                {target.id(), fr, true, costs.pageSize, "criu image read"},
                clock);
        }
        if (machine.stage(mem::FabricStage::Kind::Coherence)) {
            // Directory on: the bulk read is additionally a
            // coherence-visible touch (sharer tracking + tax, nothing
            // in the shared fabric counters), and the target drops
            // its copy right after the one-shot parse.
            machine.touchFrame(fr, target.id(), clock, "criu image read");
            machine.evictFrame(fr, target.id(), clock);
        }
    }
    if (!fabric_.sharedFs().verify(h->fileName())) {
        throw sim::CorruptImageError(sim::format(
            "CRIU image %s failed CRC (torn write?)",
            h->fileName().c_str()));
    }

    // Deserialize the whole image. The page payload dominates; the
    // deserialize bandwidth models the combined parse + copy-to-local
    // pass CRIU performs.
    proto::Decoder dec(file->data);
    proto::CriuImageMsg image = proto::CriuImageMsg::decode(dec);
    clock.advance(costs.deserializeCost(h->simulatedBytes()) +
                  costs.serializeRecord * double(h->records()));
    readSpan.attr("bytes", h->simulatedBytes()).finish();

    sim::SpanScope createSpan = machine.tracer().span(
        clock, target.id(), "restore.task_create", "rfork.phase");
    auto task = target.createTask(image.global.taskName + "+criu",
                                  opts.container);
    createSpan.finish();

    try {

    // Rebuild the full VMA tree.
    const SimTime memStart = clock.now();
    sim::SpanScope memSpan = machine.tracer().span(
        clock, target.id(), "restore.memory_state", "rfork.phase");
    for (const proto::VmaMsg &vm : image.vmas) {
        task->mm().vmas().insert(fromMsg(vm));
        clock.advance(costs.vmaSetup);
        if (os::VmaKind(vm.kind) == os::VmaKind::FilePrivate)
            clock.advance(costs.fileOpen);
    }

    // Copy every checkpointed page into local memory and map it.
    for (const proto::PageMsg &pm : image.pages) {
        const mem::VirtAddr va = mem::VirtAddr::fromPageNumber(pm.vpn);
        const os::Vma *vma = task->mm().vmas().findLocal(va);
        if (!vma)
            sim::fatal("CRIU image page outside any VMA");
        const mem::PhysAddr frame =
            target.localDram().alloc(mem::FrameUse::Data, pm.content);
        task->mm().pageTable().setPte(va, Pte::make(frame, vma->writable()));
        ++rs.pagesCopied;
        if (machine.tracer().enabled()) {
            machine.tracer().instant(
                clock, target.id(), "page_copy", "rfork",
                {{"vpn", sim::TraceValue::of(pm.vpn)},
                 {"reason", sim::TraceValue::of("criu_copy")}});
        }
    }
    rs.memoryState = clock.now() - memStart;
    memSpan.attr("pages_copied", rs.pagesCopied).finish();

    // Redo global state and restore registers.
    const SimTime globalStart = clock.now();
    sim::SpanScope globalSpan = machine.tracer().span(
        clock, target.id(), "restore.global_state", "rfork.phase");
    redoGlobalState(target, *task, image.global);
    rs.globalState = clock.now() - globalStart;
    task->cpu().gpr = image.cpu.gpr;
    task->cpu().rip = image.cpu.rip;
    task->cpu().rsp = image.cpu.rsp;
    task->cpu().fpstate = image.cpu.fpstate;
    globalSpan.finish();

    // Speculative prefetch: CRIU restores eagerly, so most requests
    // find their page resident and count as skips — the schedule costs
    // its issue time and buys little, which the ablation reports
    // honestly.
    if (opts.prefetch)
        runSpeculativePrefetch(target, *task, *opts.prefetch, &rs);

    } catch (...) {
        target.exitTask(task);
        restoreFailedCounter_->inc();
        throw;
    }

    rs.latency = clock.now() - start;
    restoreSpan.attr("pages_copied", rs.pagesCopied).finish();
    restoresCounter_->inc();
    restoreLatency_->record(rs.latency);
    if (stats)
        *stats = rs;
    restoreNodeStat_.on(target).inc();
    return task;
}

} // namespace cxlfork::rfork
