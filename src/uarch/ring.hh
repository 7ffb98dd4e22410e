/**
 * @file
 * Power-of-two ring deque for small copyable values. The core's
 * reorder buffer and its fetch and replay queues are bounded by
 * machine capacities and sit on the per-instruction hot path, where
 * std::deque's segment bookkeeping is measurable; this ring does O(1)
 * branch-light pushes and pops at both ends, and doubles when full:
 * for those queues only if a sizing assumption is ever violated, for
 * the trace's retired-store ring (uarch/trace.hh) as the trace grows.
 */

#ifndef MG_UARCH_RING_HH
#define MG_UARCH_RING_HH

#include <cstddef>
#include <vector>

namespace mg {

/** Double-ended ring of T (T must be cheap to copy, e.g. a pointer). */
template <typename T>
class RingDeque
{
  public:
    explicit RingDeque(std::size_t minCapacity)
    {
        std::size_t cap = 16;
        while (cap < minCapacity + 1)
            cap <<= 1;
        buf.resize(cap);
        mask = cap - 1;
    }

    bool empty() const { return head == tail; }
    std::size_t size() const { return (tail - head) & mask; }

    void
    push_back(T v)
    {
        if (size() == mask)
            grow();
        buf[tail] = v;
        tail = (tail + 1) & mask;
    }

    void
    push_front(T v)
    {
        if (size() == mask)
            grow();
        head = (head - 1) & mask;
        buf[head] = v;
    }

    T front() const { return buf[head]; }
    T back() const { return buf[(tail - 1) & mask]; }
    /** The @p i-th element from the front, i < size(). */
    T at(std::size_t i) const { return buf[(head + i) & mask]; }

    void pop_front() { head = (head + 1) & mask; }
    void pop_back() { tail = (tail - 1) & mask; }

    void
    clear()
    {
        head = tail = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger((mask + 1) * 2);
        std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            bigger[i] = buf[(head + i) & mask];
        buf.swap(bigger);
        mask = buf.size() - 1;
        head = 0;
        tail = n;
    }

    std::vector<T> buf;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
};

} // namespace mg

#endif // MG_UARCH_RING_HH
