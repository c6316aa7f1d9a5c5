#include "relation/catalog.h"

#include <algorithm>
#include <mutex>

#include "common/fault.h"

namespace tempus {

Result<RelationStats> CatalogEntry::Stats() const {
  // Held across the scan, so concurrent first callers wait for one result.
  std::lock_guard<std::mutex> lock(mu_);
  if (!stats_.has_value()) {
    TEMPUS_ASSIGN_OR_RETURN(stats_, relation_.ComputeStats());
  }
  return *stats_;
}

Status Catalog::Register(TemporalRelation relation) {
  TEMPUS_FAULT_POINT("catalog.register");
  const std::string name = relation.name();
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (relations_.count(name) > 0 || paged_.count(name) > 0) {
    return Status::AlreadyExists("relation already registered: " + name);
  }
  relations_.emplace(
      name, std::make_shared<const CatalogEntry>(std::move(relation)));
  return Status::Ok();
}

void Catalog::RegisterOrReplace(TemporalRelation relation) {
  const std::string name = relation.name();
  std::unique_lock<std::shared_mutex> lock(*mu_);
  paged_.erase(name);
  relations_.insert_or_assign(
      name, std::make_shared<const CatalogEntry>(std::move(relation)));
}

Status Catalog::RegisterPaged(const std::string& name,
                              std::shared_ptr<const PagedRelation> relation) {
  TEMPUS_FAULT_POINT("catalog.register");
  if (relation == nullptr) {
    return Status::InvalidArgument("null paged relation: " + name);
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (relations_.count(name) > 0 || paged_.count(name) > 0) {
    return Status::AlreadyExists("relation already registered: " + name);
  }
  paged_.emplace(name, std::move(relation));
  return Status::Ok();
}

void Catalog::RegisterOrReplacePaged(
    const std::string& name,
    std::shared_ptr<const PagedRelation> relation) {
  std::unique_lock<std::shared_mutex> lock(*mu_);
  relations_.erase(name);
  paged_.insert_or_assign(name, std::move(relation));
}

Result<std::shared_ptr<const PagedRelation>> Catalog::LookupPaged(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = paged_.find(name);
  if (it == paged_.end()) {
    return Status::NotFound("unknown disk-backed relation: " + name);
  }
  return it->second;
}

Status Catalog::Drop(const std::string& name) {
  TEMPUS_FAULT_POINT("catalog.drop");
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (relations_.erase(name) == 0 && paged_.erase(name) == 0) {
    return Status::NotFound("unknown relation: " + name);
  }
  return Status::Ok();
}

Result<const TemporalRelation*> Catalog::Lookup(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return &it->second->relation();
}

Result<std::shared_ptr<const CatalogEntry>> Catalog::LookupEntry(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second;
}

bool Catalog::Contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return relations_.count(name) > 0 || paged_.count(name) > 0;
}

std::vector<std::string> Catalog::Names() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  std::vector<std::string> names;
  names.reserve(relations_.size() + paged_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  for (const auto& [name, rel] : paged_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::size() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return relations_.size() + paged_.size();
}

Catalog Catalog::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return Catalog(relations_, paged_);
}

}  // namespace tempus
