#include "core/gaze.hh"

#include <algorithm>

#include "common/log.hh"
#include "prefetchers/registry.hh"

namespace gaze
{
namespace
{

/** Validate before any member table is built from the geometry. */
const GazeConfig &
validated(const GazeConfig &config)
{
    config.validate();
    return config;
}

} // namespace

GazePrefetcher::GazePrefetcher(const GazeConfig &config)
    : cfg(validated(config)), blocks(config.blocksPerRegion()),
      ft(config.ftSets, config.ftWays), at(config.atSets, config.atWays),
      phtTable(config), detector(config)
{
}

std::string
GazePrefetcher::name() const
{
    return "gaze";
}

void
GazePrefetcher::attach(const PrefetcherContext &ctx)
{
    Prefetcher::attach(ctx);
    useVirtual = ctx.level == levelL1;

    PrefetchBufferParams pbp;
    pbp.entries = cfg.pbEntries;
    pbp.ways = cfg.pbWays;
    pbp.issuePerCycle = cfg.pbIssuePerCycle;
    pbp.blocksPerRegion = blocks;
    pbp.virtualSpace = useVirtual;
    pb.emplace(pbp);
}

Addr
GazePrefetcher::trackAddr(const DemandAccess &a) const
{
    return useVirtual && a.vaddr ? a.vaddr : a.paddr;
}

void
GazePrefetcher::maskAccessed(PfPattern &pattern,
                             const Bitset &footprint) const
{
    for (size_t b = footprint.findFirst(); b < footprint.size();
         b = footprint.findNext(b + 1))
        pattern[b] = PfLevel::None;
}

void
GazePrefetcher::onAccess(const DemandAccess &access)
{
    // Gaze is trained on cache loads (§III-A).
    if (access.type != AccessType::Load)
        return;

    Addr addr = trackAddr(access);
    Addr rbase = regionBase(addr, cfg.regionSize);
    uint64_t rnum = addr / cfg.regionSize;
    uint32_t off = regionOffset(addr, cfg.regionSize);

    if (pb)
        pb->onDemand(rbase, off);

    uint64_t at_set = rnum & (at.sets() - 1);
    if (AtEntry *e = at.find(at_set, rnum)) {
        handleAtHit(rbase, *e, off);
        return;
    }

    uint64_t ft_set = rnum & (ft.sets() - 1);
    if (FtEntry *f = ft.find(ft_set, rnum)) {
        if (f->trigger == off)
            return; // same block again: still a one-bit footprint
        FtEntry copy = *f;
        ft.erase(ft_set, rnum);
        activateRegion(rbase, rnum, off, copy);
        return;
    }

    // Brand-new region: record the trigger access in the FT.
    FtEntry fresh;
    fresh.trigger = static_cast<uint16_t>(off);
    fresh.hashedPc = hashPC(access.pc, 12);
    ft.insert(ft_set, rnum, fresh);

    if (cfg.numInitialAccesses == 1) {
        // Degenerate configuration (Fig. 4, n=1): predict from the
        // trigger alone, conventional-style, with no AT entry yet.
        AtEntry tmp;
        tmp.footprint = Bitset(blocks);
        tmp.footprint.set(off);
        tmp.first.push(static_cast<uint16_t>(off));
        tmp.hashedPc = fresh.hashedPc;
        predict(rbase, tmp);
    }
}

void
GazePrefetcher::handleAtHit(Addr region_base, AtEntry &e, uint32_t off)
{
    if (e.footprint.test(off))
        return; // repeated access to a tracked block

    e.footprint.set(off);
    e.first.push(static_cast<uint16_t>(off));

    if (!e.predicted && e.first.count >= cfg.numInitialAccesses)
        predict(region_base, e);

    // Region-local stride engine (➐ in Fig. 3b): promotion and backup.
    if (e.strideFlag && e.haveTwo && cfg.enableBackupStride) {
        int64_t s1 = int64_t(e.last) - int64_t(e.penult);
        int64_t s2 = int64_t(off) - int64_t(e.last);
        if (s1 == s2 && s1 != 0)
            strideIssue(region_base, off, s1);
    }

    e.penult = e.last;
    e.last = static_cast<uint16_t>(off);
    if (e.first.count >= 2)
        e.haveTwo = true;
}

void
GazePrefetcher::activateRegion(Addr region_base, uint64_t rnum,
                               uint32_t off, const FtEntry &f)
{
    ++ctr.regionsActivated;

    AtEntry e;
    e.footprint = Bitset(blocks);
    e.footprint.set(f.trigger);
    e.footprint.set(off);
    e.first.push(f.trigger);
    e.first.push(static_cast<uint16_t>(off));
    e.hashedPc = f.hashedPc;
    e.penult = f.trigger;
    e.last = static_cast<uint16_t>(off);
    e.haveTwo = true;

    // With n == 1 the prediction already happened at the trigger
    // access; do not re-predict on promotion.
    e.predicted = cfg.numInitialAccesses == 1;

    uint64_t at_set = rnum & (at.sets() - 1);
    auto evicted = at.insert(at_set, rnum, std::move(e));
    if (evicted)
        learn(evicted->data);

    AtEntry *ins = at.find(at_set, rnum, /*touch=*/false);
    GAZE_ASSERT(ins, "AT insert lost the entry");
    if (cfg.numInitialAccesses == 2)
        predict(region_base, *ins);
}

void
GazePrefetcher::predict(Addr region_base, AtEntry &e)
{
    e.predicted = true;
    ++ctr.predictions;

    bool streaming = isStreamingCase(e.first);
    if (cfg.streamingRegionsOnly && !streaming)
        return;

    if (streaming && cfg.enableStreamingModule && !cfg.streamingViaPht) {
        // Stage 1 (Fig. 3c top): choose the initial aggressiveness
        // from the double-check of DPCT and DC.
        patScratch.assign(blocks, PfLevel::None);
        PfPattern &pat = patScratch;
        bool any = false;
        if (detector.isDensePc(e.hashedPc) || detector.counterFull()) {
            ++ctr.streamFullAggr;
            for (uint32_t b = 0; b < blocks; ++b)
                pat[b] = b < cfg.streamHeadBlocks ? PfLevel::L1
                                                  : PfLevel::L2;
            any = true;
        } else if (detector.counterAboveHalf()) {
            ++ctr.streamHalfAggr;
            for (uint32_t b = 0; b < std::min(cfg.streamHeadBlocks,
                                              blocks); ++b)
                pat[b] = PfLevel::L2;
            any = true;
        } else {
            ++ctr.streamNoPrefetch;
        }
        // Stage 2 arming: all streaming-case regions get the stride
        // flag so later unit strides can promote aggressiveness.
        e.strideFlag = true;
        if (any && pb) {
            maskAccessed(pat, e.footprint);
            pb->install(region_base, pat, e.first.second() + 1);
        }
        return;
    }

    // Normal case (Fig. 3c bottom): strict PHT match on the first n
    // offsets; on a miss, arm the stride backup.
    const Bitset *fp = cfg.strictMatch ? phtTable.lookup(e.first)
                                       : phtTable.lookupApprox(e.first);
    if (fp) {
        ++ctr.phtHits;
        patScratch.assign(blocks, PfLevel::None);
        PfPattern &pat = patScratch;
        for (size_t b = fp->findFirst(); b < fp->size();
             b = fp->findNext(b + 1))
            pat[b] = PfLevel::L1; // PHT prefetches all blocks into L1D
        maskAccessed(pat, e.footprint);
        if (pb) {
            uint32_t start = e.first.count >= 2 ? e.first.second() + 1
                                                : e.first.trigger() + 1;
            pb->install(region_base, pat, start);
        }
    } else {
        ++ctr.phtMisses;
        if (cfg.enableBackupStride)
            e.strideFlag = true;
    }
}

void
GazePrefetcher::strideIssue(Addr region_base, uint32_t off,
                            int64_t stride)
{
    patScratch.assign(blocks, PfLevel::None);
    PfPattern &pat = patScratch;
    bool any = false;
    for (uint32_t k = 0; k < cfg.promoteBlocks; ++k) {
        int64_t t = int64_t(off)
                    + stride * int64_t(cfg.promoteSkip + 1 + k);
        if (t < 0 || t >= int64_t(blocks))
            break;
        pat[size_t(t)] = PfLevel::L1;
        any = true;
    }
    if (any && pb) {
        ++ctr.stridePromotions;
        pb->install(region_base, pat,
                    uint32_t(std::clamp<int64_t>(
                        int64_t(off) + stride, 0, int64_t(blocks) - 1)));
    }
}

void
GazePrefetcher::learn(const AtEntry &e)
{
    bool streaming = isStreamingCase(e.first);
    if (cfg.streamingRegionsOnly && !streaming)
        return;

    if (streaming && cfg.enableStreamingModule && !cfg.streamingViaPht) {
        // Fig. 3a top path: spatial streaming detection. "Entirely
        // requested" is relaxed to a long contiguous run from the
        // region head: generations routinely end early (a tracked
        // block is evicted while interleaved traffic churns the L1),
        // and a truncated stream still shows a dense prefix, while a
        // sparse lookalike never does.
        bool dense = e.footprint.all()
                     || e.footprint.leadingRun() >= cfg.streamHeadBlocks;
        if (dense) {
            ++ctr.learnedDense;
            detector.onDenseRegion(e.hashedPc);
        } else {
            ++ctr.learnedSparse;
            detector.onSparseRegion();
        }
        return;
    }

    if (e.first.count >= cfg.numInitialAccesses) {
        ++ctr.learnedPht;
        phtTable.learn(e.first, e.footprint);
    }
}

void
GazePrefetcher::onEvict(Addr paddr, Addr vaddr)
{
    Addr addr = useVirtual ? vaddr : paddr;
    if (useVirtual && vaddr == 0)
        return; // untracked mapping (e.g. prefetched block's vaddr lost)

    uint64_t rnum = addr / cfg.regionSize;
    uint32_t off = regionOffset(addr, cfg.regionSize);
    uint64_t at_set = rnum & (at.sets() - 1);
    AtEntry *e = at.find(at_set, rnum, /*touch=*/false);
    if (!e || !e->footprint.test(off))
        return;
    // One of the region's demanded blocks left the cache: the
    // generation ends and the footprint goes back to the PHM.
    ++ctr.evictionDeactivations;
    learn(*e);
    at.erase(at_set, rnum);
}

void
GazePrefetcher::tick()
{
    if (!pb)
        return;
    pb->drain([&](Addr a, uint32_t fill, bool virt) {
        uint32_t lvl = std::max(fill, context.level);
        return issuePrefetch(a, lvl, virt);
    });
}

bool
GazePrefetcher::busy() const
{
    return pb && pb->drainPending();
}

uint64_t
GazePrefetcher::storageBits() const
{
    uint64_t bits = 0;
    for (const auto &row : gazeStorageBreakdown(cfg))
        bits += row.bits;
    return bits;
}

std::vector<GazeStorageRow>
gazeStorageBreakdown(const GazeConfig &cfg)
{
    const uint64_t blocks = cfg.blocksPerRegion();
    const std::string vec = std::to_string(blocks) + "b";
    auto geometry = [](uint32_t sets, uint32_t ways) {
        return std::to_string(ways) + "-way, "
               + std::to_string(uint64_t(sets) * ways) + " entries: ";
    };
    return {
        {"FT",
         geometry(cfg.ftSets, cfg.ftWays)
             + "region tag 36b + LRU 3b + hashed PC 12b + trigger 6b",
         uint64_t(cfg.ftSets) * cfg.ftWays * (36 + 3 + 12 + 6)},
        {"AT",
         geometry(cfg.atSets, cfg.atWays)
             + "region tag 36b + LRU 3b + hashed PC 12b + stride flag "
               "1b + trigger/second 2x6b + last/penult 2x6b + bit vector "
             + vec,
         uint64_t(cfg.atSets) * cfg.atWays
             * (36 + 3 + 12 + 1 + 2 * 6 + 2 * 6 + blocks)},
        {"PHT",
         geometry(cfg.phtSets, cfg.phtWays) + "tag 6b + LRU 2b + bit vector "
             + vec,
         uint64_t(cfg.phtSets) * cfg.phtWays * (6 + 2 + blocks)},
        {"DPCT",
         "fully associative, " + std::to_string(cfg.dpctEntries)
             + " entries: hashed PC 12b + LRU 3b, plus the 3b DC",
         uint64_t(cfg.dpctEntries) * (12 + 3) + 3},
        {"PB",
         geometry(cfg.pbEntries / cfg.pbWays, cfg.pbWays)
             + "region tag 36b + LRU 3b + pattern " + std::to_string(blocks)
             + "x2b",
         uint64_t(cfg.pbEntries) * (36 + 3 + 2 * blocks)},
    };
}

size_t
GazePrefetcher::ftOccupancy() const
{
    return ft.occupancy();
}

size_t
GazePrefetcher::atOccupancy() const
{
    return at.occupancy();
}

GAZE_REGISTER_PREFETCHER(gaze)
{
    PrefetcherDescriptor d;
    d.name = "gaze";
    d.doc = "Gaze: spatial patterns characterized by their first "
            "temporally-ordered accesses, plus a streaming module "
            "(the paper's scheme, Table I configuration)";
    d.options = {
        OptionSchema::uintRange(
            "region", 4096, 2 * blockSize, 1u << 20,
            "spatial region size in bytes (Figs. 17a/18)", true),
        OptionSchema::uintRange(
            "n", 2, 1, 4,
            "initial accesses required for a pattern match (Fig. 4)"),
        OptionSchema::uintRange(
            "phtsets", 0, 0, 1u << 20,
            "PHT sets; 0 = auto (64, or one fully-associative set "
            "when n >= 3) (Fig. 17b)",
            true),
        OptionSchema::uintRange(
            "phtways", 0, 0, 4096,
            "PHT ways; 0 = auto (4, or 256 when n >= 3 and phtsets "
            "is auto too)"),
        OptionSchema::flag(
            "nostream",
            "disable the streaming module (Gaze-PHT in Fig. 9)"),
        OptionSchema::flag(
            "pht4ss",
            "learn/predict streaming-case regions via the PHT "
            "(Fig. 10)"),
        OptionSchema::flag(
            "sm4ss",
            "operate on streaming-case regions only (Fig. 10)"),
        OptionSchema::flag(
            "nobackup",
            "disable the region-local backup stride (§III-C)"),
        OptionSchema::flag(
            "loose",
            "approximate (non-strict) PHT matching (§III-B)"),
    };
    d.build = [](const SpecOptions &o) -> std::unique_ptr<Prefetcher> {
        GazeConfig cfg;
        cfg.regionSize = o.num("region");
        cfg.numInitialAccesses = static_cast<uint32_t>(o.num("n"));
        // For n >= 3 the paper uses a 256-entry fully-associative
        // table; the 0 default means "pick the table for this n".
        // An explicit phtsets opts out of the fully-associative
        // shape entirely (matching the pre-registry factory), so
        // "gaze:n=3:phtsets=64" is a 64x4 table, not 64x256.
        uint64_t sets = o.num("phtsets");
        uint64_t ways = o.num("phtways");
        bool auto_fa = cfg.numInitialAccesses >= 3 && sets == 0;
        cfg.phtSets =
            static_cast<uint32_t>(sets ? sets : (auto_fa ? 1 : 64));
        cfg.phtWays =
            static_cast<uint32_t>(ways ? ways : (auto_fa ? 256 : 4));
        if (o.flag("nostream"))
            cfg.enableStreamingModule = false;
        if (o.flag("pht4ss")) {
            cfg.streamingViaPht = true;
            cfg.streamingRegionsOnly = true;
        }
        if (o.flag("sm4ss"))
            cfg.streamingRegionsOnly = true;
        if (o.flag("nobackup"))
            cfg.enableBackupStride = false;
        if (o.flag("loose"))
            cfg.strictMatch = false;
        // n == 1 is the pure trigger-offset characterization
        // ("Offset" in Figs. 1/9): everything, including dense
        // streaming patterns, goes through the offset-indexed PHT.
        if (cfg.numInitialAccesses == 1)
            cfg.enableStreamingModule = false;
        return std::make_unique<GazePrefetcher>(cfg);
    };
    return d;
}

} // namespace gaze
