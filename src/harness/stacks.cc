#include "harness/stacks.h"

namespace kvsim::harness {

KvssdBed::KvssdBed(const KvssdBedConfig& cfg0) : HostBed(cfg0.retry) {
  KvssdBedConfig cfg = cfg0;
  if (cfg.crash_tracking) cfg.ftl.crash_tracking = true;
  crash_on_ = cfg.ftl.crash_tracking;
  build(cfg);
}

void KvssdBed::mount(CrashOutcome& out, sim::Task settle) {
  kvftl::KvFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  settle();  // mount-time OOB scan + index rebuild
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = dr.recovered_units;
  out.lost_units = dr.lost_units;
}

LsmBed::LsmBed(const LsmBedConfig& cfg0) : HostBed(cfg0.retry) {
  LsmBedConfig cfg = cfg0;
  if (cfg.crash_tracking) {
    cfg.ftl.crash_tracking = true;
    cfg.fs.crash_tracking = true;
    cfg.lsm.crash_tracking = true;
  }
  // Recovery needs every layer's ledger: a partially-instrumented bed
  // cannot answer durability probes, so crash support is all-or-nothing.
  crash_on_ = cfg.ftl.crash_tracking && cfg.fs.crash_tracking &&
              cfg.lsm.crash_tracking;
  build(cfg);
  fs_ = std::make_unique<fs::FileSystem>(eq_, *dev_, cfg.fs);
  store_ = std::make_unique<lsm::LsmStore>(eq_, *fs_, cfg.lsm);
}

void LsmBed::quiesce(sim::Task done) {
  store_->drain([this, done = std::move(done)]() mutable {
    ftl_->flush(std::move(done));
  });
}

void LsmBed::mount(CrashOutcome& out, sim::Task settle) {
  // Device mounts first (rebuilds its map synchronously from OOB), so the
  // host recovery's durability probes see post-cut flash truth.
  blockftl::BlockFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  lsm::LsmStore::HostRecovery hr;
  store_->power_fail_and_recover(hr, [] {});
  settle();
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = dr.recovered_slots;
  out.lost_units = dr.lost_slots;
  out.wal_records_replayed = hr.wal_records_replayed;
  out.wal_records_lost = hr.wal_records_lost;
}

HashKvBed::HashKvBed(const HashKvBedConfig& cfg0) : HostBed(cfg0.retry) {
  HashKvBedConfig cfg = cfg0;
  if (cfg.crash_tracking) {
    cfg.ftl.crash_tracking = true;
    cfg.store.crash_tracking = true;
  }
  crash_on_ = cfg.ftl.crash_tracking && cfg.store.crash_tracking;
  build(cfg);
  store_ = std::make_unique<hashkv::HashKvStore>(eq_, *dev_, cfg.store);
}

void HashKvBed::mount(CrashOutcome& out, sim::Task settle) {
  blockftl::BlockFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  hashkv::HashKvStore::HostRecovery hr;
  store_->power_fail_and_recover(hr, [] {});
  settle();
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = hr.recovered_records;
  out.lost_units = hr.lost_records;
  out.log_blocks_scanned = hr.log_blocks_scanned;
}

}  // namespace kvsim::harness
