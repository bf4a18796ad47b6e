#include "workloads/trace_store.hh"

#include <algorithm>

#include "common/log.hh"

namespace gaze
{
namespace
{

/** A cursor over a buffer it shares with every other cursor. */
class SharedTrace : public TraceSource
{
  public:
    explicit SharedTrace(std::shared_ptr<const std::vector<TraceRecord>> buf)
        : records(std::move(buf))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= records->size())
            return false;
        out = (*records)[pos++];
        return true;
    }

    void reset() override { pos = 0; }

  private:
    std::shared_ptr<const std::vector<TraceRecord>> records;
    size_t pos = 0;
};

} // namespace

TraceStore::TraceStore(const std::vector<const WorkloadDef *> &jobWorkloads)
{
    for (const WorkloadDef *w : jobWorkloads)
        if (w->traceFile.empty())
            ++entries[workloadIdentity(*w)].jobsLeft;
}

std::unique_ptr<TraceSource>
TraceStore::open(const WorkloadDef &w)
{
    if (!w.traceFile.empty())
        return w.open();

    const std::string key = workloadIdentity(w);
    std::promise<Buffer> prom;
    std::shared_future<Buffer> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(key);
        GAZE_ASSERT(it != entries.end(), "workload '", key,
                    "' opened with no planned job left");
        Entry &e = it->second;
        if (!e.started) {
            e.started = true;
            e.buffer = prom.get_future().share();
            owner = true;
        }
        fut = e.buffer;
    }
    // Generate outside the lock so other workloads proceed; openers
    // of this one block on the future.
    if (owner) {
        try {
            VectorTrace t = w.make();
            prom.set_value(std::make_shared<const std::vector<TraceRecord>>(
                std::move(t.data())));
        } catch (...) {
            prom.set_exception(std::current_exception());
        }
    }
    return std::make_unique<SharedTrace>(fut.get());
}

void
TraceStore::release(const WorkloadDef &w)
{
    if (!w.traceFile.empty())
        return;
    const std::string key = workloadIdentity(w);
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(key);
    GAZE_ASSERT(it != entries.end() && it->second.jobsLeft > 0,
                "workload '", key, "' released more often than planned");
    if (--it->second.jobsLeft == 0)
        entries.erase(it);
}

size_t
TraceStore::resident() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return size_t(std::count_if(entries.begin(), entries.end(),
                                [](const auto &kv) {
                                    return kv.second.started;
                                }));
}

std::vector<size_t>
interleavedJobOrder(const std::vector<const WorkloadDef *> &jobWorkloads,
                    uint32_t threads)
{
    const size_t group = std::max<uint32_t>(threads, 1);
    std::map<std::string, size_t> slotOf;
    std::vector<std::vector<size_t>> jobsOf; // per workload, in job order
    for (size_t i = 0; i < jobWorkloads.size(); ++i) {
        auto [it, fresh] =
            slotOf.emplace(workloadIdentity(*jobWorkloads[i]), jobsOf.size());
        if (fresh)
            jobsOf.emplace_back();
        jobsOf[it->second].push_back(i);
    }

    std::vector<size_t> order;
    order.reserve(jobWorkloads.size());
    for (size_t first = 0; first < jobsOf.size(); first += group) {
        const size_t last = std::min(first + group, jobsOf.size());
        for (size_t round = 0;; ++round) {
            bool any = false;
            for (size_t k = first; k < last; ++k) {
                if (round < jobsOf[k].size()) {
                    order.push_back(jobsOf[k][round]);
                    any = true;
                }
            }
            if (!any)
                break;
        }
    }
    return order;
}

} // namespace gaze
