#include "stream/basic_ops.h"

#include <utility>

#include "common/string_util.h"

namespace tempus {

FilterStream::FilterStream(std::unique_ptr<TupleStream> child,
                           TuplePredicate predicate,
                           uint64_t comparison_weight)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      comparison_weight_(comparison_weight) {}

FilterStream::FilterStream(std::unique_ptr<TupleStream> child,
                           CompiledPredicate predicate,
                           uint64_t comparison_weight)
    : child_(std::move(child)),
      compiled_(std::move(predicate)),
      compiled_mode_(true),
      comparison_weight_(comparison_weight) {}

Status FilterStream::OpenImpl() {
  ++metrics_.passes_left;
  return child_->Open();
}

Result<bool> FilterStream::NextImpl(Tuple* out) {
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    ++metrics_.tuples_read_left;
    metrics_.comparisons += comparison_weight_;
    bool keep;
    if (compiled_mode_) {
      keep = compiled_.kernel.EvalRow(*out);
      if (keep && compiled_.residual != nullptr) {
        TEMPUS_ASSIGN_OR_RETURN(keep, compiled_.residual(*out));
      }
    } else {
      TEMPUS_ASSIGN_OR_RETURN(keep, predicate_(*out));
    }
    if (keep) {
      ++metrics_.tuples_emitted;
      return true;
    }
  }
}

Result<bool> FilterStream::NextBatchImpl(TupleBatch* out, size_t max_rows) {
  if (!compiled_mode_ || !compiled_.vectorized) {
    // Legacy closure form / interpreted mode: the per-row adapter, exactly
    // the pre-kernel behavior.
    return TupleStream::NextBatchImpl(out, max_rows);
  }
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out, max_rows));
    if (!more) return false;
    const size_t rows_in = out->ActiveSize();
    metrics_.tuples_read_left += rows_in;
    metrics_.comparisons += comparison_weight_ * rows_in;
    metrics_.kernel_rows_in += rows_in;
    TEMPUS_RETURN_IF_ERROR(compiled_.kernel.EvalBatch(out).status());
    if (compiled_.residual != nullptr) {
      residual_selection_.clear();
      for (size_t i = 0; i < out->ActiveSize(); ++i) {
        const size_t ix = out->ActiveIndex(i);
        TEMPUS_ASSIGN_OR_RETURN(bool keep, compiled_.residual(out->row(ix)));
        if (keep) residual_selection_.push_back(static_cast<uint32_t>(ix));
      }
      out->SetSelection(std::move(residual_selection_));
    }
    const size_t rows_out = out->ActiveSize();
    metrics_.kernel_rows_out += rows_out;
    metrics_.tuples_emitted += rows_out;
    if (rows_out > 0) return true;
    // Everything filtered out: pull the next child batch rather than
    // handing an empty batch downstream.
  }
}

Result<std::unique_ptr<ProjectStream>> ProjectStream::Create(
    std::unique_ptr<TupleStream> child, std::vector<size_t> indices,
    std::vector<std::string> names) {
  return Create(std::move(child), std::move(indices), std::move(names),
                VectorKernelsEnabled());
}

Result<std::unique_ptr<ProjectStream>> ProjectStream::Create(
    std::unique_ptr<TupleStream> child, std::vector<size_t> indices,
    std::vector<std::string> names, bool vectorized) {
  TEMPUS_ASSIGN_OR_RETURN(Schema schema,
                          child->schema().Project(indices));
  if (!names.empty()) {
    if (names.size() != indices.size()) {
      return Status::InvalidArgument(
          StrFormat("projection names %zu attributes, but selects %zu",
                    names.size(), indices.size()));
    }
    std::vector<AttributeDef> attrs;
    for (size_t i = 0; i < names.size(); ++i) {
      attrs.push_back({std::move(names[i]), schema.attribute(i).type});
    }
    TEMPUS_ASSIGN_OR_RETURN(Schema renamed, Schema::Create(attrs));
    if (schema.has_lifespan()) {
      TEMPUS_RETURN_IF_ERROR(
          renamed.SetLifespan(attrs[schema.valid_from_index()].name,
                              attrs[schema.valid_to_index()].name));
    }
    schema = std::move(renamed);
  }
  return std::unique_ptr<ProjectStream>(
      new ProjectStream(std::move(child), std::move(indices),
                        std::move(schema), vectorized));
}

ProjectStream::ProjectStream(std::unique_ptr<TupleStream> child,
                             std::vector<size_t> indices, Schema schema,
                             bool vectorized)
    : child_(std::move(child)),
      indices_(std::move(indices)),
      schema_(std::move(schema)),
      vectorized_(vectorized) {}

Status ProjectStream::OpenImpl() {
  ++metrics_.passes_left;
  return child_->Open();
}

Result<bool> ProjectStream::NextImpl(Tuple* out) {
  Tuple row;
  TEMPUS_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
  if (!has) return false;
  ++metrics_.tuples_read_left;
  std::vector<Value> values;
  values.reserve(indices_.size());
  for (size_t ix : indices_) {
    values.push_back(row[ix]);
  }
  *out = Tuple(std::move(values));
  ++metrics_.tuples_emitted;
  return true;
}

Result<bool> ProjectStream::NextBatchImpl(TupleBatch* out, size_t max_rows) {
  if (!vectorized_) return TupleStream::NextBatchImpl(out, max_rows);
  const LifespanRef* lifespan = BatchLifespan();
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&input_, max_rows));
    if (!more) return false;
    const size_t n = input_.ActiveSize();
    metrics_.tuples_read_left += n;
    for (size_t i = 0; i < n; ++i) {
      out->PushOwnedProject(input_.row(input_.ActiveIndex(i)), indices_,
                            lifespan);
    }
    metrics_.tuples_emitted += n;
    if (n > 0) return true;
  }
}

SortStream::SortStream(std::unique_ptr<TupleStream> child, SortSpec spec)
    : child_(std::move(child)), spec_(std::move(spec)) {}

Status SortStream::OpenImpl() {
  ++metrics_.passes_left;
  sorted_.clear();
  metrics_.ResetWorkspace();
  TEMPUS_RETURN_IF_ERROR(child_->Open());
  TupleBatch batch;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      ++metrics_.tuples_read_left;
      sorted_.push_back(Tuple(batch.row(batch.ActiveIndex(i))));
      metrics_.AddWorkspace();
    }
  }
  SortTuples(&sorted_, spec_);
  next_index_ = 0;
  return Status::Ok();
}

Result<bool> SortStream::NextImpl(Tuple* out) {
  if (next_index_ >= sorted_.size()) return false;
  *out = sorted_[next_index_++];
  ++metrics_.tuples_emitted;
  return true;
}

Result<bool> SortStream::NextBatchImpl(TupleBatch* out, size_t max_rows) {
  const LifespanRef* lifespan = BatchLifespan();
  const size_t begin = next_index_;
  while (out->size() < max_rows && next_index_ < sorted_.size()) {
    const Tuple& tuple = sorted_[next_index_++];
    out->PushStable(&tuple,
                    lifespan != nullptr ? lifespan->Of(tuple) : Interval());
  }
  metrics_.tuples_emitted += next_index_ - begin;
  return !out->empty();
}

MapStream::MapStream(std::unique_ptr<TupleStream> child, Schema output_schema,
                     Transform transform)
    : child_(std::move(child)),
      schema_(std::move(output_schema)),
      transform_(std::move(transform)) {}

Status MapStream::OpenImpl() {
  ++metrics_.passes_left;
  return child_->Open();
}

Result<bool> MapStream::NextImpl(Tuple* out) {
  Tuple row;
  TEMPUS_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
  if (!has) return false;
  ++metrics_.tuples_read_left;
  TEMPUS_ASSIGN_OR_RETURN(*out, transform_(row));
  ++metrics_.tuples_emitted;
  return true;
}

DedupStream::DedupStream(std::unique_ptr<TupleStream> child)
    : child_(std::move(child)) {}

Status DedupStream::OpenImpl() {
  ++metrics_.passes_left;
  buckets_.assign(1024, {});
  emitted_ = 0;
  metrics_.ResetWorkspace();
  return child_->Open();
}

Result<bool> DedupStream::NextImpl(Tuple* out) {
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    ++metrics_.tuples_read_left;
    std::vector<Tuple>& bucket = buckets_[out->Hash() % buckets_.size()];
    bool seen = false;
    for (const Tuple& t : bucket) {
      ++metrics_.comparisons;
      if (t.Equals(*out)) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      bucket.push_back(*out);
      metrics_.AddWorkspace();
      ++emitted_;
      ++metrics_.tuples_emitted;
      return true;
    }
  }
}

}  // namespace tempus
