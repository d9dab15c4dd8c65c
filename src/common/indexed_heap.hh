/**
 * @file
 * A binary min-heap over small non-negative integer ids whose keys
 * change in place: the fleet driver's step order, busy clocks and
 * fault due times (fleet/fleet.cc).
 *
 * The top is the id with the least (key, id) pair, so equal keys
 * resolve to the lowest id — the tie rule of the linear scans the
 * heap replaces. Each id is in the heap at most once; set() inserts
 * it or moves it to a new key, erase() removes it, both O(log n).
 * Storage grows to the largest id ever set and is never released,
 * so a heap over a fleet costs a few words per instance.
 */

#ifndef DUPLEX_COMMON_INDEXED_HEAP_HH
#define DUPLEX_COMMON_INDEXED_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace duplex
{

class IndexedMinHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    bool contains(int id) const
    {
        return id >= 0 && static_cast<std::size_t>(id) < pos_.size() &&
               pos_[id] >= 0;
    }

    /** The id with the least (key, id); the heap must not be empty. */
    int top() const
    {
        panicIf(heap_.empty(), "IndexedMinHeap::top on empty heap");
        return heap_.front().id;
    }

    std::int64_t topKey() const
    {
        panicIf(heap_.empty(), "IndexedMinHeap::topKey on empty heap");
        return heap_.front().key;
    }

    /** Insert @p id with @p key, or move it there if present. */
    void set(int id, std::int64_t key)
    {
        panicIf(id < 0, "IndexedMinHeap: negative id");
        const auto slot = static_cast<std::size_t>(id);
        if (slot >= pos_.size())
            pos_.resize(slot + 1, -1);
        if (pos_[slot] < 0) {
            heap_.push_back({key, id});
            siftUp(heap_.size() - 1);
            return;
        }
        const auto at = static_cast<std::size_t>(pos_[slot]);
        const std::int64_t old = heap_[at].key;
        heap_[at].key = key;
        if (key < old)
            siftUp(at);
        else if (key > old)
            siftDown(at);
    }

    /** Remove @p id; a no-op when it is not in the heap. */
    void erase(int id)
    {
        if (!contains(id))
            return;
        const auto at = static_cast<std::size_t>(pos_[id]);
        pos_[id] = -1;
        const Node last = heap_.back();
        heap_.pop_back();
        if (at == heap_.size())
            return;
        heap_[at] = last;
        siftUp(at);
        siftDown(static_cast<std::size_t>(pos_[last.id]));
    }

    /** Remove and return top(). */
    int pop()
    {
        const int id = top();
        erase(id);
        return id;
    }

  private:
    /** Keys live in the heap array, so a sift compares without
     *  chasing ids. */
    struct Node
    {
        std::int64_t key;
        int id;

        bool operator<(const Node &o) const
        {
            return key < o.key || (key == o.key && id < o.id);
        }
    };

    std::vector<Node> heap_; //!< heap order
    std::vector<int> pos_;   //!< id -> index in heap_, -1 absent

    void place(std::size_t at, const Node &node)
    {
        heap_[at] = node;
        pos_[node.id] = static_cast<int>(at);
    }

    void siftUp(std::size_t at)
    {
        const Node node = heap_[at];
        while (at > 0) {
            const std::size_t parent = (at - 1) / 2;
            if (!(node < heap_[parent]))
                break;
            place(at, heap_[parent]);
            at = parent;
        }
        place(at, node);
    }

    void siftDown(std::size_t at)
    {
        const Node node = heap_[at];
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t child = 2 * at + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap_[child + 1] < heap_[child])
                ++child;
            if (!(heap_[child] < node))
                break;
            place(at, heap_[child]);
            at = child;
        }
        place(at, node);
    }
};

} // namespace duplex

#endif // DUPLEX_COMMON_INDEXED_HEAP_HH
