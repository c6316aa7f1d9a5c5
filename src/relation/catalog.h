#ifndef TEMPUS_RELATION_CATALOG_H_
#define TEMPUS_RELATION_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relation/temporal_relation.h"

namespace tempus {

class PagedRelation;

/// One registered in-memory relation plus a slot for its scalar statistics,
/// computed at most once. The relation is immutable, so the first successful
/// ComputeStats() stays valid for the entry's whole life; every Snapshot()
/// shares the entry (and so the slot), and RegisterOrReplace / Drop retire
/// both together. Nothing is computed at registration: the planner fills
/// the slot on first use, and never when `analyze` statistics make the
/// scalars unnecessary. A failed computation (non-temporal schema,
/// injected fault) is returned but not cached, so the next call retries.
class CatalogEntry {
 public:
  explicit CatalogEntry(TemporalRelation relation)
      : relation_(std::move(relation)) {}

  const TemporalRelation& relation() const { return relation_; }

  /// The relation's ComputeStats(), from the slot once it is filled.
  /// Thread-safe: concurrent first callers compute once between them.
  Result<RelationStats> Stats() const;

 private:
  const TemporalRelation relation_;
  mutable std::mutex mu_;
  mutable std::optional<RelationStats> stats_;  // Guarded by mu_.
};

/// A named collection of relations — what query range variables resolve
/// against ("range of f1 is Faculty"). Entries are either in-memory
/// TemporalRelations or disk-backed PagedRelations (spilled through the
/// buffer pool; docs/STORAGE.md); a name is unique across both kinds.
/// The catalog layer never dereferences PagedRelation (it is forward-
/// declared here), so the relation library stays independent of storage.
///
/// Concurrency: relations are stored as shared handles to immutable
/// entries, and every member takes a reader/writer lock, so Register /
/// RegisterOrReplace / Drop are safe against concurrent lookups. A raw
/// pointer returned by Lookup() is only guaranteed to stay valid while no
/// concurrent Drop/replace can retire the relation — cross-thread
/// executions (the TQL server) therefore plan against Snapshot(), whose
/// shared handles keep every relation alive for the life of the snapshot
/// even if the source catalog drops it mid-query (snapshot-consistent
/// reads; docs/SERVER.md), or hold the LookupEntry() handle.
class Catalog {
 public:
  Catalog() = default;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers `relation` under its name; fails on duplicates.
  Status Register(TemporalRelation relation);

  /// Registers or replaces.
  void RegisterOrReplace(TemporalRelation relation);

  /// Removes the relation; NotFound if absent. Snapshots taken earlier
  /// keep the relation alive until they are destroyed.
  Status Drop(const std::string& name);

  Result<const TemporalRelation*> Lookup(const std::string& name) const;

  /// The in-memory entry registered under `name`: a shared handle that
  /// keeps the relation alive across a concurrent Drop/replace (unlike
  /// Lookup's raw pointer) and carries its cached statistics.
  Result<std::shared_ptr<const CatalogEntry>> LookupEntry(
      const std::string& name) const;

  /// Registers a disk-backed relation under `name` (the caller passes the
  /// relation's own name; this layer cannot read it from the forward-
  /// declared handle). Fails if the name exists in either map.
  Status RegisterPaged(const std::string& name,
                       std::shared_ptr<const PagedRelation> relation);

  /// Registers or replaces `name` with a disk-backed relation, retiring
  /// any in-memory relation of that name in the same critical section
  /// (the atomic swap Engine::SpillRelation relies on). Earlier snapshots
  /// keep the retired in-memory relation alive.
  void RegisterOrReplacePaged(const std::string& name,
                              std::shared_ptr<const PagedRelation> relation);

  /// The disk-backed relation registered under `name`, if any.
  Result<std::shared_ptr<const PagedRelation>> LookupPaged(
      const std::string& name) const;

  bool Contains(const std::string& name) const;

  std::vector<std::string> Names() const;

  size_t size() const;

  /// An isolated, immutable copy sharing the relation storage (cheap:
  /// one shared handle per relation). Queries planned against the
  /// snapshot see exactly the relations registered at snapshot time.
  Catalog Snapshot() const;

 private:
  using RelationMap =
      std::map<std::string, std::shared_ptr<const CatalogEntry>>;
  using PagedMap =
      std::map<std::string, std::shared_ptr<const PagedRelation>>;

  Catalog(RelationMap relations, PagedMap paged)
      : relations_(std::move(relations)), paged_(std::move(paged)) {}

  // unique_ptr so Catalog stays movable (snapshots are returned by value).
  std::unique_ptr<std::shared_mutex> mu_ =
      std::make_unique<std::shared_mutex>();
  RelationMap relations_;
  PagedMap paged_;
};

}  // namespace tempus

#endif  // TEMPUS_RELATION_CATALOG_H_
