// Sparse functional memory image shared by a whole simulated system.
//
// Timing packets carry no payload; endpoints read/write this store when a
// transaction logically completes. Storage is allocated lazily in fixed
// chunks so multi-GB address spaces cost only what is touched.
//
// A one-entry last-chunk memo keeps streaming accesses off the chunk map
// entirely; chunk payloads never move once allocated, so a memoed pointer
// stays valid for the store's lifetime.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys {
class Ckpt;
}

namespace accesys::mem {

class BackingStore {
  public:
    static constexpr std::uint64_t kChunkBytes = 64 * kKiB;
    static constexpr std::uint64_t kChunkMask = kChunkBytes - 1;

    BackingStore() = default;
    BackingStore(const BackingStore&) = delete;
    BackingStore& operator=(const BackingStore&) = delete;

    void write(Addr addr, const void* src, std::uint64_t n)
    {
        const auto* p = static_cast<const std::uint8_t*>(src);
        const std::uint64_t off = addr & kChunkMask;
        if (off + n <= kChunkBytes) {
            // Single-chunk fast path: packet-sized accesses and streaming
            // DMA bursts land here — one memo probe, one memcpy.
            std::memcpy(chunk_for(addr) + off, p, n);
            return;
        }
        while (n > 0) {
            const std::uint64_t o = addr & kChunkMask;
            const std::uint64_t run = std::min(n, kChunkBytes - o);
            std::memcpy(chunk_for(addr) + o, p, run);
            addr += run;
            p += run;
            n -= run;
        }
    }

    void read(Addr addr, void* dst, std::uint64_t n) const
    {
        auto* p = static_cast<std::uint8_t*>(dst);
        const std::uint64_t off = addr & kChunkMask;
        if (off + n <= kChunkBytes) {
            const std::uint8_t* c = find_chunk(addr);
            if (c != nullptr) {
                std::memcpy(p, c + off, n);
            } else {
                std::memset(p, 0, n); // untouched memory reads as zero
            }
            return;
        }
        while (n > 0) {
            const std::uint64_t o = addr & kChunkMask;
            const std::uint64_t run = std::min(n, kChunkBytes - o);
            const std::uint8_t* c = find_chunk(addr);
            if (c != nullptr) {
                std::memcpy(p, c + o, run);
            } else {
                std::memset(p, 0, run); // untouched memory reads as zero
            }
            addr += run;
            p += run;
            n -= run;
        }
    }

    template <typename T>
    void write_obj(Addr addr, const T& v)
    {
        write(addr, &v, sizeof(T));
    }

    template <typename T>
    [[nodiscard]] T read_obj(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /// Copy `n` bytes from `src` to `dst` within the store. Regions are
    /// copied chunk-to-chunk with no intermediate bounce buffer; an
    /// unallocated source chunk materialises as zeros at the destination.
    /// Overlapping same-chunk spans copy as if through a snapshot
    /// (memmove); cross-chunk overlap is the caller's problem, exactly as
    /// it was for the bounce-buffer version this replaces.
    void copy(Addr dst, Addr src, std::uint64_t n)
    {
        while (n > 0) {
            const std::uint64_t soff = src & kChunkMask;
            const std::uint64_t doff = dst & kChunkMask;
            const std::uint64_t run = std::min(
                n, kChunkBytes - std::max(soff, doff));
            const std::uint8_t* s = find_chunk(src);
            std::uint8_t* d = chunk_for(dst);
            if (s == nullptr) {
                std::memset(d + doff, 0, run);
            } else if (s + soff == d + doff) {
                // Same place: nothing to move.
            } else {
                std::memmove(d + doff, s + soff, run);
            }
            src += run;
            dst += run;
            n -= run;
        }
    }

    [[nodiscard]] std::size_t chunks_allocated() const
    {
        return chunks_.size();
    }

    /// Checkpoint/restore every allocated chunk (sorted by key so the
    /// byte stream is independent of directory iteration order). Load
    /// overwrites in place: workload setup re-touches a subset of the
    /// checkpointed chunks, never any others, so nothing is cleared.
    void serialize(Ckpt& ar);

  private:
    std::uint8_t* chunk_for(Addr addr)
    {
        const std::uint64_t key = addr / kChunkBytes;
        if (memo_key_ == key) {
            return memo_chunk_;
        }
        auto& slot = chunks_[key];
        if (!slot) {
            slot = std::make_unique<std::uint8_t[]>(kChunkBytes);
            std::memset(slot.get(), 0, kChunkBytes);
        }
        memo_key_ = key;
        memo_chunk_ = slot.get();
        return memo_chunk_;
    }

    [[nodiscard]] const std::uint8_t* find_chunk(Addr addr) const
    {
        const std::uint64_t key = addr / kChunkBytes;
        if (memo_key_ == key) {
            return memo_chunk_;
        }
        const auto it = chunks_.find(key);
        if (it == chunks_.end()) {
            return nullptr;
        }
        memo_key_ = key;
        memo_chunk_ = it->second.get();
        return memo_chunk_;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        chunks_;
    /// Last chunk touched (never a missing one): its key and payload.
    mutable std::uint64_t memo_key_ = ~std::uint64_t{0};
    mutable std::uint8_t* memo_chunk_ = nullptr;
};

} // namespace accesys::mem
