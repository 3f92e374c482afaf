#include "lsm/lsm_store.h"

#include <algorithm>
#include <cstdio>

#include "sim/latch.h"

namespace kvsim::lsm {

namespace {
u64 mem_entry_bytes(std::string_view key, const ValueDesc& v) {
  return key.size() + v.size + 48;
}
}  // namespace

LsmStore::LsmStore(sim::EventQueue& eq, fs::FileSystem& fs,
                   const LsmConfig& cfg)
    : eq_(eq),
      fs_(fs),
      cfg_(cfg),
      levels_(cfg.num_levels),
      compact_rr_(cfg.num_levels, 0),
      cache_(cfg.block_cache_bytes / cfg.data_block_bytes) {
  wal_file_ = fs_.create("wal-0");
  if (cfg_.crash_tracking) wal_ledger_.file = wal_file_;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmStore::put(std::string_view key, ValueDesc value, PutDone done) {
  do_write(key, value, false, std::move(done));
}

void LsmStore::del(std::string_view key, PutDone done) {
  do_write(key, ValueDesc{}, true, std::move(done));
}

bool LsmStore::stalled() const {
  return (immutable_ && mt_bytes_ >= cfg_.memtable_bytes) ||
         levels_[0].size() >= cfg_.l0_stall_limit;
}

void LsmStore::do_write(std::string_view key, ValueDesc value, bool tombstone,
                        PutDone done) {
  if (stalled()) {
    ++stall_events_;
    stalled_writes_.push_back(
        PendingWrite{std::string(key), value, tombstone, std::move(done)});
    return;
  }
  const TimeNs cost =
      cfg_.api_ns + cfg_.memtable_insert_ns + cfg_.wal_append_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    mt_bytes_ -= std::min(mt_bytes_,
                          mem_entry_bytes(it->first, it->second.value));
    it->second = MemEntry{value, ++seq_, tombstone};
  } else {
    memtable_.emplace(std::string(key), MemEntry{value, ++seq_, tombstone});
  }
  mt_bytes_ += mem_entry_bytes(key, value);

  bool wal_io = false;
  u64 wal_chunk = 0;
  if (cfg_.crash_tracking)
    wal_ledger_.buffered.push_back(
        WalRecord{std::string(key), value, tombstone, seq_});
  wal_buffer_bytes_ += key.size() + value.size + 12;
  if (wal_buffer_bytes_ >= 4 * KiB) {
    wal_chunk = wal_buffer_bytes_;
    wal_buffer_bytes_ = 0;
    wal_total_bytes_ += wal_chunk;
    wal_seg_bytes_ += wal_chunk;
    wal_io = true;
    if (cfg_.crash_tracking) {
      const u64 bb = fs_.block_bytes();
      const u64 blocks = (wal_chunk + bb - 1) / bb;
      wal_ledger_.chunks.push_back(WalChunk{
          wal_ledger_.next_block, blocks, std::move(wal_ledger_.buffered)});
      wal_ledger_.buffered.clear();
      wal_ledger_.next_block += blocks;
    }
  }

  if (wal_io) {
    auto join = sim::make_status_latch(
        2, [done = std::move(done)](Status s) mutable { done(s); });
    eq_.schedule_at(t_cpu, [join] { join->arrive(); });
    fs_.append(wal_file_, wal_chunk, seq_,
               [join](Status s) { join->arrive(s); });
  } else {
    eq_.schedule_at(t_cpu,
                    [done = std::move(done)]() mutable { done(Status::kOk); });
  }

  if (mt_bytes_ >= cfg_.memtable_bytes && !immutable_) rotate_memtable();
}

void LsmStore::unstall() {
  while (!stalled_writes_.empty() && !stalled()) {
    PendingWrite w = std::move(stalled_writes_.front());
    stalled_writes_.pop_front();
    do_write(w.key, w.value, w.tombstone, std::move(w.done));
  }
}

void LsmStore::rotate_memtable() {
  immutable_ = std::make_shared<Memtable>(std::move(memtable_));
  memtable_.clear();
  mt_bytes_ = 0;
  // Start a fresh WAL segment; the old one dies when the flush lands.
  rotated_wal_ = wal_file_;
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%llu",
                (unsigned long long)++wal_gen_);
  wal_file_ = fs_.create(name);
  wal_buffer_bytes_ = 0;
  if (cfg_.crash_tracking) {
    // Records still in the group-commit buffer stay with the archived
    // segment as its unflushed tail: acked, never WAL'd, durable only if
    // the flush's SST makes it to flash.
    archived_wals_.push_back(std::move(wal_ledger_));
    wal_ledger_ = WalLedger{};
    wal_ledger_.file = wal_file_;
  }
  schedule_flush();
}

void LsmStore::schedule_flush() {
  if (flush_running_ || !immutable_) return;
  flush_running_ = true;
  ++flushes_;

  std::vector<SstEntry> entries;
  entries.reserve(immutable_->size());
  for (const auto& [k, e] : *immutable_)
    entries.push_back(SstEntry{k, e.value, e.seq, e.tombstone});
  auto sst = build_sst(next_sst_id_++, std::move(entries));
  char name[32];
  std::snprintf(name, sizeof(name), "sst-%llu", (unsigned long long)sst->id);
  sst->file = fs_.create(name);

  const u64 kvps = sst->entries.size();
  cpu_ns_ += kvps * cfg_.compaction_cpu_per_kvp_ns / 2;  // flush is cheaper
  const TimeNs t_cpu =
      bg_cpu_.reserve(eq_.now(), kvps * cfg_.compaction_cpu_per_kvp_ns / 2);
  eq_.schedule_at(t_cpu, [this, sst] {
    write_ssts_then({sst}, [this, sst] { finish_flush(sst); });
  });
}

struct LsmStore::SstWrite {
  std::vector<std::shared_ptr<Sst>> ssts;
  size_t idx = 0;   // file being appended
  u64 written = 0;  // bytes of it appended so far
  sim::Task done;
};

void LsmStore::write_ssts_then(std::vector<std::shared_ptr<Sst>> ssts,
                               sim::Task done) {
  write_next_chunk(
      std::make_shared<SstWrite>(std::move(ssts), 0, 0, std::move(done)));
}

void LsmStore::write_next_chunk(std::shared_ptr<SstWrite> w) {
  // Sequentially append each SST file in io_chunk_bytes pieces.
  while (w->idx < w->ssts.size() &&
         w->written >= w->ssts[w->idx]->file_bytes) {
    ++w->idx;
    w->written = 0;
  }
  if (w->idx == w->ssts.size()) {
    w->done();
    return;
  }
  const Sst& sst = *w->ssts[w->idx];
  const u64 chunk =
      std::min<u64>(sst.file_bytes - w->written, cfg_.io_chunk_bytes);
  fs_.set_queue(0);  // background writes stay off the tenant queues
  fs_.append(sst.file, chunk, sst.id * 1000 + w->written / cfg_.io_chunk_bytes,
             [this, w, chunk](Status) mutable {
               w->written += chunk;
               write_next_chunk(std::move(w));
             });
}

void LsmStore::finish_flush(std::shared_ptr<Sst> sst) {
  levels_[0].push_back(std::move(sst));
  immutable_.reset();
  flush_running_ = false;
  // Crash mode archives rotated WAL segments instead of deleting them:
  // the flush's appends are acked but possibly still in the device write
  // buffer, so dropping the WAL here is exactly the no-fsync data-loss
  // window the crash model exists to expose.
  if (!cfg_.crash_tracking && rotated_wal_ != fs::FileSystem::kInvalidHandle) {
    const auto dead = rotated_wal_;
    rotated_wal_ = fs::FileSystem::kInvalidHandle;
    wal_seg_bytes_ -= std::min(wal_seg_bytes_, fs_.file_bytes(dead));
    fs_.remove(dead, [](Status) {});
  }
  if (draining_ && !memtable_.empty() && !immutable_) rotate_memtable();
  unstall();
  maybe_schedule_compaction();
  maybe_quiesce();
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

u64 LsmStore::level_bytes(u32 level) const {
  u64 sum = 0;
  for (const auto& s : levels_[level]) sum += s->file_bytes;
  return sum;
}

u64 LsmStore::level_target(u32 level) const {
  u64 target = cfg_.l1_target_bytes;
  for (u32 i = 1; i < level; ++i) target *= cfg_.level_size_ratio;
  return target;
}

u32 LsmStore::level_file_count(u32 level) const {
  return level < levels_.size() ? (u32)levels_[level].size() : 0;
}

void LsmStore::maybe_schedule_compaction() {
  while (compactions_inflight_ < cfg_.max_background_compactions &&
         try_start_compaction()) {
  }
}

bool LsmStore::try_start_compaction() {
  auto any_compacting = [](const std::vector<std::shared_ptr<Sst>>& v) {
    for (const auto& s : v)
      if (s->compacting) return true;
    return false;
  };
  if (levels_[0].size() >= cfg_.l0_compaction_trigger &&
      !any_compacting(levels_[0])) {
    // L0 files overlap each other, so an L0 job must take them all; it
    // also claims the overlapping L1 range inside run_compaction.
    run_compaction(0);
    return true;
  }
  for (u32 i = 1; i + 1 < (u32)levels_.size(); ++i) {
    if (!levels_[i].empty() && level_bytes(i) > level_target(i)) {
      // A victim (and its L+1 overlap) must be unclaimed.
      for (u32 probe = 0; probe < (u32)levels_[i].size(); ++probe) {
        const u32 idx =
            (compact_rr_[i] + probe) % (u32)levels_[i].size();
        const auto& victim = levels_[i][idx];
        if (victim->compacting) continue;
        bool clash = false;
        for (const auto& s : levels_[i + 1])
          if (s->overlaps(victim->smallest, victim->largest) &&
              s->compacting)
            clash = true;
        if (clash) continue;
        compact_rr_[i] = idx + 1;
        run_compaction_victim(i, victim);
        return true;
      }
    }
  }
  return false;
}

/// A merging compaction's state, from its first input read to install.
struct LsmStore::CompactionJob {
  u32 level = 0;
  std::vector<std::shared_ptr<Sst>> inputs_lo, inputs_hi;
  std::vector<std::shared_ptr<Sst>> inputs;  // lo then hi: read/merge order
  size_t idx = 0;   // input being read
  u64 offset = 0;   // bytes of it read so far
  std::vector<std::shared_ptr<Sst>> outputs;
};

void LsmStore::run_compaction(u32 level) {
  run_compaction_victim(level, nullptr);
}

void LsmStore::run_compaction_victim(u32 level,
                                     std::shared_ptr<Sst> victim) {
  ++compactions_inflight_;
  peak_compactions_ = std::max(peak_compactions_, compactions_inflight_);
  ++compactions_;

  std::vector<std::shared_ptr<Sst>> inputs_lo;
  if (level == 0) {
    inputs_lo = levels_[0];
  } else {
    inputs_lo.push_back(victim ? victim : levels_[level][0]);
  }

  std::string lo = inputs_lo.front()->smallest, hi = inputs_lo.front()->largest;
  for (const auto& s : inputs_lo) {
    lo = std::min(lo, s->smallest);
    hi = std::max(hi, s->largest);
  }
  std::vector<std::shared_ptr<Sst>> inputs_hi;
  for (const auto& s : levels_[level + 1])
    if (s->overlaps(lo, hi)) inputs_hi.push_back(s);
  for (const auto& s : inputs_lo) s->compacting = true;
  for (const auto& s : inputs_hi) s->compacting = true;

  // Trivial move: nothing to merge with downstairs, and (for L0) the
  // inputs do not overlap each other — just move metadata. This is what
  // makes sequential fills cheap on the LSM/block stack.
  bool movable = inputs_hi.empty();
  if (movable && level == 0 && inputs_lo.size() > 1) {
    std::vector<std::shared_ptr<Sst>> sorted = inputs_lo;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a->smallest < b->smallest;
              });
    for (size_t i = 0; i + 1 < sorted.size() && movable; ++i)
      movable = !(sorted[i]->largest >= sorted[i + 1]->smallest);
  }
  if (movable) {
    ++trivial_moves_;
    install_compaction(level, std::move(inputs_lo), {}, {});
    return;
  }

  // Real merge: read all inputs, merge (CPU), write outputs, install.
  auto job = std::make_shared<CompactionJob>();
  job->level = level;
  job->inputs = inputs_lo;
  job->inputs.insert(job->inputs.end(), inputs_hi.begin(), inputs_hi.end());
  job->inputs_lo = std::move(inputs_lo);
  job->inputs_hi = std::move(inputs_hi);
  read_next_input(std::move(job));
}

void LsmStore::read_next_input(std::shared_ptr<CompactionJob> job) {
  while (job->idx < job->inputs.size() &&
         job->offset >= job->inputs[job->idx]->file_bytes) {
    ++job->idx;
    job->offset = 0;
  }
  if (job->idx == job->inputs.size()) {
    merge_compaction(std::move(job));
    return;
  }
  const Sst& sst = *job->inputs[job->idx];
  const u64 chunk =
      std::min<u64>(sst.file_bytes - job->offset, cfg_.io_chunk_bytes);
  fs_.set_queue(0);  // background reads stay off the tenant queues
  fs_.read(sst.file, job->offset, chunk,
           [this, job, chunk](Status, u64) mutable {
             job->offset += chunk;
             read_next_input(std::move(job));
           });
}

void LsmStore::merge_compaction(std::shared_ptr<CompactionJob> job) {
  // All inputs read; merge on the background CPU.
  std::vector<SstEntry> merged;
  u64 kvps = 0;
  for (const auto& s : job->inputs) kvps += s->entries.size();
  merged.reserve(kvps);
  for (const auto& s : job->inputs)
    merged.insert(merged.end(), s->entries.begin(), s->entries.end());
  std::sort(merged.begin(), merged.end(),
            [](const SstEntry& a, const SstEntry& b) {
              return a.key != b.key ? a.key < b.key : a.seq > b.seq;
            });
  // Keep newest version per key; drop tombstones at the bottom.
  bool bottom = true;
  for (u32 j = job->level + 2; j < (u32)levels_.size(); ++j)
    if (!levels_[j].empty()) bottom = false;
  std::vector<SstEntry> kept;
  kept.reserve(merged.size());
  std::string last_key;
  bool have_last = false;
  for (auto& e : merged) {
    if (have_last && last_key == e.key) continue;
    last_key = e.key;
    have_last = true;
    if (e.tombstone && bottom) continue;  // tombstones die at the bottom
    kept.push_back(std::move(e));
  }
  cpu_ns_ += kvps * cfg_.compaction_cpu_per_kvp_ns;
  const TimeNs t_cpu =
      bg_cpu_.reserve(eq_.now(), kvps * cfg_.compaction_cpu_per_kvp_ns);

  // Split into output SSTs.
  std::vector<SstEntry> cur;
  u64 cur_bytes = 0;
  for (auto& e : kept) {
    cur_bytes += entry_file_bytes(e);
    cur.push_back(std::move(e));
    if (cur_bytes >= cfg_.sst_target_bytes) {
      job->outputs.push_back(build_sst(next_sst_id_++, std::move(cur)));
      cur.clear();
      cur_bytes = 0;
    }
  }
  if (!cur.empty())
    job->outputs.push_back(build_sst(next_sst_id_++, std::move(cur)));
  for (const auto& o : job->outputs) {
    char name[32];
    std::snprintf(name, sizeof(name), "sst-%llu", (unsigned long long)o->id);
    o->file = fs_.create(name);
  }
  eq_.schedule_at(t_cpu, [this, job] {
    write_ssts_then(job->outputs, [this, job] {
      install_compaction(job->level, std::move(job->inputs_lo),
                         std::move(job->inputs_hi), std::move(job->outputs));
    });
  });
}

void LsmStore::install_compaction(
    u32 level, std::vector<std::shared_ptr<Sst>> inputs_lo,
    std::vector<std::shared_ptr<Sst>> inputs_hi,
    std::vector<std::shared_ptr<Sst>> outputs) {
  auto remove_from = [](std::vector<std::shared_ptr<Sst>>& vec,
                        const std::vector<std::shared_ptr<Sst>>& gone) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const std::shared_ptr<Sst>& s) {
                               for (const auto& g : gone)
                                 if (g == s) return true;
                               return false;
                             }),
              vec.end());
  };
  remove_from(levels_[level], inputs_lo);
  remove_from(levels_[level + 1], inputs_hi);

  if (outputs.empty() && !inputs_lo.empty() && inputs_hi.empty()) {
    // Trivial move: the inputs become the outputs.
    outputs = inputs_lo;
    inputs_lo.clear();
  }
  for (auto& o : outputs) levels_[level + 1].push_back(o);
  std::sort(levels_[level + 1].begin(), levels_[level + 1].end(),
            [](const auto& a, const auto& b) {
              return a->smallest < b->smallest;
            });

  // Delete replaced files (trivial moves keep theirs). A get that
  // snapshotted one of them must not read it any more (get_from_ssts).
  for (const auto* gone : {&inputs_lo, &inputs_hi})
    for (const auto& s : *gone) {
      s->retired = true;
      if (s->file != fs::FileSystem::kInvalidHandle)
        fs_.remove(s->file, [](Status) {});
    }

  for (auto& o : outputs) o->compacting = false;
  --compactions_inflight_;
  unstall();
  maybe_schedule_compaction();
  maybe_quiesce();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void LsmStore::get(std::string_view key, GetDone done, u32 queue) {
  const TimeNs cost = cfg_.api_ns + cfg_.memtable_get_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  auto answer = [&](const MemEntry& e) {
    const Status s = e.tombstone ? Status::kNotFound : Status::kOk;
    const ValueDesc v = e.tombstone ? ValueDesc{} : e.value;
    eq_.schedule_at(
        t_cpu, [s, v, done = std::move(done)]() mutable { done(s, v); });
  };
  if (auto it = memtable_.find(key); it != memtable_.end()) {
    answer(it->second);
    return;
  }
  if (immutable_) {
    if (auto it = immutable_->find(key); it != immutable_->end()) {
      answer(it->second);
      return;
    }
  }

  const u64 khash = hash64(key);
  eq_.schedule_at(t_cpu, [this, k = std::string(key), khash,
                          candidates = sst_candidates(key),
                          done = std::move(done), queue]() mutable {
    get_from_ssts(std::move(k), khash, std::move(candidates), 0,
                  std::move(done), queue);
  });
}

std::vector<std::shared_ptr<Sst>> LsmStore::sst_candidates(
    std::string_view key) const {
  std::vector<std::shared_ptr<Sst>> candidates;
  for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it)
    if ((*it)->overlaps(key, key)) candidates.push_back(*it);
  for (u32 l = 1; l < (u32)levels_.size(); ++l)
    for (const auto& s : levels_[l])
      if (s->overlaps(key, key)) {
        candidates.push_back(s);
        break;  // levels >0 are non-overlapping: at most one file
      }
  return candidates;
}

void LsmStore::get_from_ssts(std::string key, u64 khash,
                             std::vector<std::shared_ptr<Sst>> candidates,
                             size_t idx, GetDone done, u32 queue) {
  if (idx >= candidates.size()) {
    done(Status::kNotFound, ValueDesc{});
    return;
  }
  const std::shared_ptr<Sst>& sst = candidates[idx];
  cpu_ns_ += cfg_.bloom_check_ns;
  if (!sst->bloom->may_contain(khash)) {
    eq_.schedule_after(cfg_.bloom_check_ns,
                       [this, key = std::move(key), khash,
                        candidates = std::move(candidates), idx,
                        done = std::move(done), queue]() mutable {
                         get_from_ssts(std::move(key), khash,
                                       std::move(candidates), idx + 1,
                                       std::move(done), queue);
                       });
    return;
  }
  const i64 i = sst->find(key);
  if (i < 0) {  // Bloom false positive: paid an index-block lookup
    eq_.schedule_after(cfg_.block_parse_ns,
                       [this, key = std::move(key), khash,
                        candidates = std::move(candidates), idx,
                        done = std::move(done), queue]() mutable {
                         get_from_ssts(std::move(key), khash,
                                       std::move(candidates), idx + 1,
                                       std::move(done), queue);
                       });
    return;
  }
  const SstEntry& e = sst->entries[(size_t)i];
  const Status s = e.tombstone ? Status::kNotFound : Status::kOk;
  const ValueDesc v = e.tombstone ? ValueDesc{} : e.value;

  const u64 block_no = sst->offsets[(size_t)i] / cfg_.data_block_bytes;
  const u64 block_key = (sst->id << 24) | (block_no & 0xffffff);
  cpu_ns_ += cfg_.block_parse_ns;
  ++cache_lookups_;
  if (cache_.touch(block_key)) {
    ++cache_hits_;
    eq_.schedule_after(cfg_.block_parse_ns,
                       [s, v, done = std::move(done)]() mutable { done(s, v); });
    return;
  }
  const u64 nblocks =
      (e.value.size + cfg_.data_block_bytes - 1) / cfg_.data_block_bytes;
  const u64 read_bytes = std::max<u64>(1, nblocks) * cfg_.data_block_bytes;
  if (sst->retired) {
    // A compaction installed since the candidates were snapshotted and
    // removed this file; its entries now live in the current version.
    ++retired_lookups_;
    auto current = sst_candidates(key);
    get_from_ssts(std::move(key), khash, std::move(current), 0,
                  std::move(done), queue);
    return;
  }
  fs_.set_queue(queue);  // this read runs events after the tenant's issue
  fs_.read(sst->file, block_no * cfg_.data_block_bytes, read_bytes,
           [this, block_key, s, v, done = std::move(done)](Status rs,
                                                           u64) mutable {
             if (rs != Status::kOk) {
               done(rs, ValueDesc{});  // media/timeout error trumps hit
               return;
             }
             cache_.insert(block_key);  // a failed read caches nothing
             done(s, v);
           });
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void LsmStore::power_fail_and_recover(HostRecovery& out, sim::Task done) {
  const TimeNs now = eq_.now();

  // ---- power loss: host DRAM is gone -------------------------------------
  memtable_.clear();
  mt_bytes_ = 0;
  immutable_.reset();
  stalled_writes_.clear();  // never acked; their callbacks died with the cut
  flush_running_ = false;
  compactions_inflight_ = 0;
  draining_ = false;
  quiesce_waiters_.clear();
  wal_buffer_bytes_ = 0;
  cache_.clear();
  rotated_wal_ = fs::FileSystem::kInvalidHandle;
  fg_cpu_.power_cycle(now);
  bg_cpu_.power_cycle(now);
  for (auto& level : levels_)
    for (auto& s : level) s->compacting = false;

  // One held arrival, released at the end; each recovery read, remove and
  // CPU slot below adds one.
  auto gate = sim::make_latch(1, std::move(done));

  // ---- mount 1/3: keep only SSTs whose every block reached flash ---------
  // The manifest (levels structure) and fs metadata are modeled as
  // journal-durable; a torn SST is caught by its footer/block checksums
  // during the mount-time footer read charged here. Torn files are
  // deleted and their records re-surface through WAL replay, since crash
  // mode archives WAL segments instead of deleting them at flush install.
  u64 footer_reads = 0;
  std::vector<fs::FileSystem::Handle> survivors;
  for (auto& level : levels_) {
    std::vector<std::shared_ptr<Sst>> kept;
    kept.reserve(level.size());
    for (auto& s : level) {
      ++footer_reads;
      ++gate->remaining;
      fs_.read(s->file, 0, std::min<u64>(s->file_bytes, 4 * KiB),
               [gate](Status, u64) { gate->arrive(); });
      if (fs_.probe_durable(s->file, 0, s->file_bytes)) {
        survivors.push_back(s->file);
        kept.push_back(s);
        ++out.ssts_kept;
      } else {
        ++out.ssts_discarded;
      }
    }
    level = std::move(kept);
  }
  // Delete every non-surviving SST file: torn installed files plus
  // orphans from flushes/compactions that never installed.
  for (u64 id = 1; id < next_sst_id_; ++id) {
    char name[32];
    std::snprintf(name, sizeof(name), "sst-%llu", (unsigned long long)id);
    const auto h = fs_.lookup(name);
    if (h == fs::FileSystem::kInvalidHandle) continue;
    if (std::find(survivors.begin(), survivors.end(), h) != survivors.end())
      continue;
    ++gate->remaining;
    fs_.remove(h, [gate](Status) { gate->arrive(); });
  }

  // ---- mount 2/3: replay the durable prefix of every WAL segment ---------
  // Crash mode archives WAL segments from genesis, so replay sees records
  // whose newer versions already live in a surviving SST (the usual case:
  // the version was flushed, possibly after arriving as a sub-group-commit
  // WAL tail that never hit the log). Replaying such a record into the
  // memtable would shadow the newer SST version on reads, so a record is
  // applied only when nothing durable holds a seq at least as new.
  auto sst_covers = [&](const std::string& key, u64 seq) {
    for (const auto& level : levels_)
      for (const auto& s : level) {
        const i64 i = s->find(key);
        if (i >= 0 && s->entries[(size_t)i].seq >= seq) return true;
      }
    return false;
  };
  std::vector<WalRecord> lost_candidates;
  auto replay_ledger = [&](WalLedger& led) {
    bool torn = false;
    const u64 bb = fs_.block_bytes();
    std::vector<WalChunk> durable_chunks;
    durable_chunks.reserve(led.chunks.size());
    for (WalChunk& c : led.chunks) {
      ++out.wal_chunks_scanned;
      if (!torn &&
          fs_.probe_durable(led.file, c.file_block * bb, c.blocks * bb)) {
        ++gate->remaining;
        fs_.read_blocks(led.file, c.file_block, c.blocks,
                        [gate](Status, u64) { gate->arrive(); });
        for (const WalRecord& r : c.records) {
          ++out.wal_records_replayed;
          if (sst_covers(r.key, r.seq)) continue;
          auto it = memtable_.find(r.key);
          if (it != memtable_.end()) {
            if (it->second.seq >= r.seq) continue;
            mt_bytes_ -= std::min(
                mt_bytes_, mem_entry_bytes(it->first, it->second.value));
            it->second = MemEntry{r.value, r.seq, r.tombstone};
          } else {
            memtable_.emplace(r.key, MemEntry{r.value, r.seq, r.tombstone});
          }
          mt_bytes_ += mem_entry_bytes(r.key, r.value);
        }
        durable_chunks.push_back(std::move(c));
      } else {
        // A torn chunk ends the segment's valid prefix: later chunks are
        // untrusted even if their blocks happened to land.
        torn = true;
        for (WalRecord& r : c.records) lost_candidates.push_back(std::move(r));
      }
    }
    // The ledger keeps only what recovery accepted: a future crash must
    // not replay (or re-count) records that no longer exist anywhere.
    led.chunks = std::move(durable_chunks);
    for (WalRecord& r : led.buffered) lost_candidates.push_back(std::move(r));
    led.buffered.clear();
  };
  for (WalLedger& led : archived_wals_) replay_ledger(led);
  replay_ledger(wal_ledger_);

  // ---- mount 3/3: recompute the write sequence from durable state --------
  u64 max_seq = 0;
  for (const auto& [k, e] : memtable_) max_seq = std::max(max_seq, e.seq);
  for (const auto& level : levels_)
    for (const auto& s : level)
      for (const auto& e : s->entries) max_seq = std::max(max_seq, e.seq);
  seq_ = max_seq;

  // An acked record is lost only if no durable copy — WAL replay or a
  // surviving SST — holds a version at least as new.
  auto covered = [&](const WalRecord& r) {
    if (auto it = memtable_.find(r.key);
        it != memtable_.end() && it->second.seq >= r.seq)
      return true;
    for (const auto& level : levels_)
      for (const auto& s : level) {
        const i64 i = s->find(r.key);
        if (i >= 0 && s->entries[(size_t)i].seq >= r.seq) return true;
      }
    return false;
  };
  for (const WalRecord& r : lost_candidates)
    if (!covered(r)) ++out.wal_records_lost;

  // Recovery CPU: a footer parse per SST plus a memtable insert per
  // replayed record, serialized on the foreground (mount) thread.
  const TimeNs cpu = footer_reads * cfg_.block_parse_ns +
                     out.wal_records_replayed * cfg_.memtable_insert_ns;
  cpu_ns_ += cpu;
  ++gate->remaining;
  eq_.schedule_at(fg_cpu_.reserve(now, cpu), [gate] { gate->arrive(); });

  gate->arrive();  // release the initial hold
}

// ---------------------------------------------------------------------------
// Drain / telemetry
// ---------------------------------------------------------------------------

void LsmStore::drain(sim::Task done) {
  draining_ = true;
  quiesce_waiters_.push_back(std::move(done));
  if (!memtable_.empty() && !immutable_) rotate_memtable();
  maybe_quiesce();
}

void LsmStore::maybe_quiesce() {
  if (quiesce_waiters_.empty()) return;
  maybe_schedule_compaction();
  if (flush_running_ || compactions_inflight_ > 0 || immutable_) return;
  if (draining_ && !memtable_.empty()) {
    rotate_memtable();
    return;
  }
  if (levels_[0].size() >= cfg_.l0_compaction_trigger) return;
  draining_ = false;
  auto waiters = std::move(quiesce_waiters_);
  quiesce_waiters_.clear();
  for (auto& w : waiters) w();
}

std::vector<std::string> LsmStore::debug_locate(std::string_view key) const {
  std::vector<std::string> hits;
  char buf[96];
  auto add = [&](const char* where, u64 seq, u64 fp, bool tomb) {
    std::snprintf(buf, sizeof(buf), "%s seq=%llu fp=%llu%s", where,
                  (unsigned long long)seq, (unsigned long long)fp,
                  tomb ? " tombstone" : "");
    hits.emplace_back(buf);
  };
  if (auto it = memtable_.find(key); it != memtable_.end())
    add("memtable", it->second.seq, it->second.value.fingerprint,
        it->second.tombstone);
  if (immutable_) {
    if (auto it = immutable_->find(key); it != immutable_->end())
      add("immutable", it->second.seq, it->second.value.fingerprint,
          it->second.tombstone);
  }
  for (u32 l = 0; l < (u32)levels_.size(); ++l) {
    for (const auto& s : levels_[l]) {
      const i64 i = s->find(key);
      if (i < 0) continue;
      char where[64];
      std::snprintf(where, sizeof(where), "L%u:sst-%llu ovl=%d bloom=%d", l,
                    (unsigned long long)s->id, (int)s->overlaps(key, key),
                    (int)s->bloom->may_contain(hash64(key)));
      add(where, s->entries[(size_t)i].seq,
          s->entries[(size_t)i].value.fingerprint,
          s->entries[(size_t)i].tombstone);
    }
  }
  return hits;
}

u64 LsmStore::sst_bytes_live() const {
  u64 sum = wal_seg_bytes_;
  for (const auto& level : levels_)
    for (const auto& s : level) sum += s->file_bytes;
  return sum;
}

}  // namespace kvsim::lsm
