#include "neuro/serve/queue.h"

#include <algorithm>

#include "neuro/common/logging.h"

namespace neuro {
namespace serve {

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::Expired: return "expired";
    }
    return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    NEURO_ASSERT(capacity >= 1, "queue capacity must be >= 1");
}

bool
RequestQueue::push(PendingRequest &&pending)
{
    MutexGuard lock(mutex_);
    if (closed_ || items_.size() >= capacity_)
        return false;
    items_.push_back(std::move(pending));
    wakeNewest();
    return true;
}

void
RequestQueue::close()
{
    MutexGuard lock(mutex_);
    closed_ = true;
    for (CondVar *waiter : waiters_)
        waiter->notifyOne();
    waiters_.clear();
}

std::cv_status
RequestQueue::awaitPush(ServeClock::time_point until)
{
    CondVar self;
    waiters_.push_back(&self);
    std::cv_status status = std::cv_status::no_timeout;
    if (until == ServeClock::time_point::max())
        self.wait(mutex_);
    else
        status = self.waitUntil(mutex_, until);
    // A waker unregisters whom it notifies; after a timeout or a
    // spurious wake `self` is still listed and must leave with us.
    std::erase(waiters_, &self);
    return status;
}

void
RequestQueue::wakeNewest()
{
    // Under mutex_, so the waiter cannot destroy its CondVar first.
    if (waiters_.empty())
        return;
    waiters_.back()->notifyOne();
    waiters_.pop_back();
}

bool
RequestQueue::closed() const
{
    MutexGuard lock(mutex_);
    return closed_;
}

std::size_t
RequestQueue::size() const
{
    MutexGuard lock(mutex_);
    return items_.size();
}

MicroBatcher::MicroBatcher(RequestQueue &queue, BatchPolicy policy)
    : queue_(queue), policy_(policy)
{
    NEURO_ASSERT(policy_.maxBatch >= 1, "maxBatch must be >= 1");
}

std::vector<PendingRequest>
MicroBatcher::nextBatch(int64_t idleTimeoutMicros)
{
    std::vector<PendingRequest> batch;
    MutexGuard lock(queue_.mutex_);

    // Phase 1: wait for the first request (or close / idle timeout).
    // Explicit wait loops, not predicate lambdas: the thread-safety
    // analysis cannot see guarded members through a lambda.
    const auto idleUntil =
        idleTimeoutMicros < 0
            ? ServeClock::time_point::max()
            : ServeClock::now() +
                  std::chrono::microseconds(idleTimeoutMicros);
    while (queue_.items_.empty() && !queue_.closed_) {
        if (queue_.awaitPush(idleUntil) == std::cv_status::timeout)
            break;
    }
    if (queue_.items_.empty())
        return batch; // idle-timer flush, or closed and drained.

    // Phase 2: the first request opens the batch; wait for it to fill
    // up to maxBatch, but no longer than maxWaitMicros past the open,
    // never past the earliest deadline in hand, and not at all once
    // the queue is closed (shutdown drains at full speed).
    auto fillUntil =
        ServeClock::now() + std::chrono::microseconds(policy_.maxWaitMicros);
    while (batch.size() < policy_.maxBatch) {
        if (!queue_.items_.empty()) {
            batch.push_back(std::move(queue_.items_.front()));
            queue_.items_.pop_front();
            // End of the request's queue stage / start of batch assembly.
            batch.back().dequeueTime = ServeClock::now();
            continue;
        }
        if (queue_.closed_)
            break;
        for (const PendingRequest &pending : batch) {
            fillUntil =
                std::min(fillUntil, pending.request.deadline);
        }
        if (ServeClock::now() >= fillUntil)
            break;
        if (queue_.awaitPush(fillUntil) == std::cv_status::timeout)
            break;
    }
    // A push wakes one worker: if requests are still queued as this
    // batch leaves (it filled, or its fill wait timed out as a push
    // landed), hand them to another worker.
    if (!queue_.items_.empty())
        queue_.wakeNewest();
    return batch;
}

} // namespace serve
} // namespace neuro
