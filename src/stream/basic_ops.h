#ifndef TEMPUS_STREAM_BASIC_OPS_H_
#define TEMPUS_STREAM_BASIC_OPS_H_

#include <functional>
#include <memory>
#include <vector>

#include "relation/sort_spec.h"
#include "stream/kernel.h"
#include "stream/stream.h"

namespace tempus {

/// Row predicate used by FilterStream. Returning an error aborts the scan.
using TuplePredicate = std::function<Result<bool>(const Tuple&)>;

/// A predicate compiled for FilterStream: the kernel-expressible conjuncts
/// plus an optional per-row residual closure for everything else (e.g.
/// Allen-mask atoms). `vectorized` is the path choice sampled from
/// TEMPUS_VECTOR_KERNELS at compile/plan time: when set the filter
/// consumes child batches natively and refines their selection vectors in
/// place; when clear it evaluates per row, byte-for-byte like the legacy
/// closure path.
struct CompiledPredicate {
  PredicateKernel kernel;
  TuplePredicate residual;  // May be null when the kernel covers everything.
  bool vectorized = false;
};

/// Emits the child's tuples satisfying its predicate (relational
/// selection). Order-preserving. Two construction forms: the legacy
/// closure form (always per-row, default batch adapter) and the compiled
/// form, whose vectorized mode overrides NextBatchImpl to refine the
/// child's selection vectors without materializing a single row.
class FilterStream : public TupleStream {
 public:
  /// `comparison_weight` is the number of atomic comparisons the predicate
  /// models per evaluation (a conjunction of k atoms costs k); it feeds
  /// the comparisons metric so benchmarks can expose the "overhead due to
  /// testing redundant qualification" the paper's Section 5 discusses.
  FilterStream(std::unique_ptr<TupleStream> child, TuplePredicate predicate,
               uint64_t comparison_weight = 1);

  /// Compiled form (the planner's path).
  FilterStream(std::unique_ptr<TupleStream> child,
               CompiledPredicate predicate, uint64_t comparison_weight = 1);

  const Schema& schema() const override { return child_->schema(); }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<TupleStream> child_;
  TuplePredicate predicate_;        // Legacy closure form; null if compiled.
  CompiledPredicate compiled_;
  bool compiled_mode_ = false;
  uint64_t comparison_weight_;
  std::vector<uint32_t> residual_selection_;  // Scratch for the batch path.
};

/// Projects the child onto the given attribute indices. Order-preserving.
/// With vector kernels enabled the batch path pulls child batches and
/// emits projected rows into recycled owned slots — no per-row Tuple
/// allocation and no adapter hop.
class ProjectStream : public TupleStream {
 public:
  /// Fails if any index is out of range for the child schema. `names`
  /// renames the output attributes positionally (empty keeps the child's
  /// names); the lifespan designation follows its columns either way.
  /// `vectorized` defaults to the TEMPUS_VECTOR_KERNELS knob.
  static Result<std::unique_ptr<ProjectStream>> Create(
      std::unique_ptr<TupleStream> child, std::vector<size_t> indices,
      std::vector<std::string> names = {});
  static Result<std::unique_ptr<ProjectStream>> Create(
      std::unique_ptr<TupleStream> child, std::vector<size_t> indices,
      std::vector<std::string> names, bool vectorized);

  const Schema& schema() const override { return schema_; }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 private:
  ProjectStream(std::unique_ptr<TupleStream> child,
                std::vector<size_t> indices, Schema schema, bool vectorized);

  std::unique_ptr<TupleStream> child_;
  std::vector<size_t> indices_;
  Schema schema_;
  bool vectorized_;
  TupleBatch input_;  // Batch-path scratch for the child's rows.
};

/// Materializes and sorts the child on Open(), then emits in order. The
/// sort enforcer the planner inserts when a stream operator needs an order
/// the input does not already satisfy. Workspace is the full input
/// (reflected in metrics), which is exactly the cost Table 1 trades against.
class SortStream : public TupleStream {
 public:
  SortStream(std::unique_ptr<TupleStream> child, SortSpec spec);

  const Schema& schema() const override { return child_->schema(); }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  /// Emits sorted rows as zero-copy stable batches (`sorted_` outlives the
  /// consumer's use of the batch), keeping the batch chain — and any
  /// vectorized filter kernels above — alive across a sort enforcer.
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

  const SortSpec& spec() const { return spec_; }

 private:
  std::unique_ptr<TupleStream> child_;
  SortSpec spec_;
  std::vector<Tuple> sorted_;
  size_t next_index_ = 0;
};

/// Per-tuple transform producing rows of an explicitly supplied schema
/// (computed columns, e.g. the derived "gap" lifespan [f1.TE, f2.TS+1) of
/// the semantically optimized Superstar plan). Order-preserving with
/// respect to any key the transform copies through.
class MapStream : public TupleStream {
 public:
  using Transform = std::function<Result<Tuple>(const Tuple&)>;

  MapStream(std::unique_ptr<TupleStream> child, Schema output_schema,
            Transform transform);

  const Schema& schema() const override { return schema_; }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<TupleStream> child_;
  Schema schema_;
  Transform transform_;
};

/// Removes duplicate tuples (set projection semantics). Workspace is a hash
/// set of emitted tuples. Order-preserving on first occurrences.
class DedupStream : public TupleStream {
 public:
  explicit DedupStream(std::unique_ptr<TupleStream> child);

  const Schema& schema() const override { return child_->schema(); }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<TupleStream> child_;
  std::vector<std::vector<Tuple>> buckets_;  // Open-addressed by hash % size.
  size_t emitted_ = 0;
};

}  // namespace tempus

#endif  // TEMPUS_STREAM_BASIC_OPS_H_
