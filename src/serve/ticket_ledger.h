/**
 * @file
 * TicketLedger: the append-only, ticket-indexed result store behind
 * RenderService and ShardedRenderService.
 *
 * Tickets are issued densely in append order, so a ticket is an offset
 * into the ledger and draining it needs no sort. Each entry is consumed
 * at most once (Take / TakeAll); consuming trims the consumed prefix,
 * so a caller that claims its tickets holds only the unclaimed ones.
 *
 * Thread-safety: none; the owning service guards it with its own mutex.
 */
#ifndef FLEXNERFER_SERVE_TICKET_LEDGER_H_
#define FLEXNERFER_SERVE_TICKET_LEDGER_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace flexnerfer {

template <typename T>
class TicketLedger
{
  public:
    using Ticket = std::uint64_t;

    /** Appends @p value; returns its ticket. */
    Ticket
    Append(T value)
    {
        entries_.push_back(Entry{std::move(value), false});
        return first_ + entries_.size() - 1;
    }

    /** The unconsumed entry for @p ticket (fatal otherwise). */
    T& At(Ticket ticket) { return EntryOf(ticket).value; }

    /** Consumes @p ticket's entry (fatal if unknown or consumed). */
    T
    Take(Ticket ticket)
    {
        Entry& entry = EntryOf(ticket);
        T value = std::move(entry.value);
        entry.consumed = true;
        while (!entries_.empty() && entries_.front().consumed) {
            entries_.pop_front();
            ++first_;
        }
        return value;
    }

    /** Consumes every unconsumed entry, in ticket order. */
    std::vector<T>
    TakeAll()
    {
        std::vector<T> values;
        values.reserve(entries_.size());
        for (Entry& entry : entries_) {
            if (!entry.consumed) values.push_back(std::move(entry.value));
        }
        first_ += entries_.size();
        entries_.clear();
        return values;
    }

    /** Consumes every unconsumed entry by handing the whole ledger
     *  over in O(1), without moving any entry, so the caller can drain
     *  the returned ledger (ForEach) outside the lock that guards this
     *  one. Tickets here keep counting from where they left off. */
    TicketLedger
    Detach()
    {
        TicketLedger taken;
        taken.entries_.swap(entries_);
        taken.first_ = first_;
        first_ += taken.entries_.size();
        return taken;
    }

    /** Entries held, consumed ones included: an upper bound on the
     *  unconsumed count. */
    std::size_t size() const { return entries_.size(); }

    /** Calls @p visit(ticket, entry) for every unconsumed entry, in
     *  ticket order. */
    template <typename Visit>
    void
    ForEach(Visit&& visit)
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (!entries_[i].consumed) visit(first_ + i, entries_[i].value);
        }
    }

  private:
    struct Entry {
        T value;
        bool consumed = false;
    };

    Entry&
    EntryOf(Ticket ticket)
    {
        FLEX_CHECK_MSG(ticket >= first_ &&
                           ticket - first_ < entries_.size() &&
                           !entries_[ticket - first_].consumed,
                       "unknown or already-consumed ticket " << ticket);
        return entries_[ticket - first_];
    }

    std::deque<Entry> entries_;
    Ticket first_ = 0;  //!< ticket of entries_.front()
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_TICKET_LEDGER_H_
