#ifndef AXMLX_TOOLS_AXMLX_LINT_LINT_H_
#define AXMLX_TOOLS_AXMLX_LINT_LINT_H_

#include <string>
#include <vector>

/// axmlx-lint: project-specific static analysis for the AXML repository.
///
/// The paper's correctness story (§3.1-§3.3) rests on invariants the C++
/// compiler never checks: every protocol message kind needs a dispatch arm,
/// no fallible Status may be silently dropped, every StatusCode must have a
/// printable name, trace-event kinds must come from one declared table
/// (benches assert on them by string), every mutation must be recorded
/// (RecordVersion), and every WAL record written must be replayable. This
/// linter turns those review-time conventions into CI-enforced rules. It is
/// a lightweight tokenizer over the source tree — no libclang — which keeps
/// it dependency-free and fast enough to run as an ordinary ctest (label
/// `lint`).
///
/// Architecture: the analyzer is two-pass and cross-translation-unit.
/// Pass 1 tokenizes every file once and collects global *facts*: declared
/// name-registry tables (kEv*/kSpan*/kEvFr*/kMetric*), WAL record tags
/// appended vs. parsed in src/storage, xml::Document member definitions and
/// their intra-class call graph, and the names of every variable declared
/// with an unordered container type. Pass 2 checks each file — and the
/// facts against each other — and emits findings. That is what lets a rule
/// say "this tag is written in AppendWal but no ReplayWal arm parses it":
/// the writer and the replayer live hundreds of lines apart and must never
/// drift (the TxFS lesson: journal grammars rot unless writer and replayer
/// are checked against each other).
///
/// Rules:
///  R1  message dispatch: every `kMsg*` constant declared in txn/payload.h
///      has a dispatch arm in AxmlPeer::OnMessage (txn/peer.cc); no peer or
///      recovery code references an undeclared `kMsg*` identifier; and no
///      dispatcher compares or assigns `.type` against a raw string literal.
///  R2  [[nodiscard]]: `class Status` and `class Result` in common/status.h
///      carry a class-level [[nodiscard]], which makes every Status- or
///      Result-returning API warn when its result is ignored.
///  R3  name tables: every StatusCode enumerator has a `case` in
///      StatusCodeName (common/status.cc); every ALL_CAPS string passed
///      as a trace-event kind (Trace::Add / TraceEventf call sites) is
///      declared in the `kEv*` table in common/trace.h; every ALL_CAPS
///      string passed as a span kind (OpenSpan call sites) is declared in
///      the `kSpan*` table in obs/span.h; and every ALL_CAPS string passed
///      as a flight-recorder event kind (Record call sites) is declared in
///      the `kEvFr*` table in obs/flight_recorder.h — off-table kinds fall
///      out of forensic timelines silently.
///  R4  header hygiene: every header's include guard is AXMLX_<PATH>_H_
///      derived from its path, and headers contain no `using namespace` at
///      namespace scope.
///  R5  no assert where a Status return is available: library functions
///      returning Status/Result must report failures, not assert(); the
///      paper's recovery protocol depends on faults being propagated.
///  R6  recording discipline: every member of xml::Document (defined in
///      xml/document.cc) that mutates node state — detected as a call to
///      FindMutable or NodeAt — must record the mutation, either by
///      calling RecordVersion/NewNode directly or by delegating to another
///      Document member that does (computed as a fixpoint over the
///      intra-class call graph). A mutator the rule cannot see through is
///      exempted with lint:allow(R6) and a justification. Outside
///      xml/document.{h,cc}, every FindMutable call is flagged: such a
///      write bypasses RecordVersion, so delta replica sync and the
///      call-shape generation miss it. Writes into a document nobody else has seen yet carry
///      lint:allow(R6) with the reason.
///  R7  determinism: no wall-clock time (std::chrono system/steady/
///      high_resolution clocks, gettimeofday, clock_gettime), no unseeded
///      randomness (rand, srand, *rand48, std::random_device), and no
///      iteration over unordered containers (range-for or .begin() on any
///      name pass 1 saw declared as std::unordered_map/set) in the scanned
///      tree: same-seed runs are the differential oracle (byte-identical
///      WAL replay, repeatable drills), and hash-order iteration feeding a
///      protocol, serialization, or WAL path silently breaks replay. Use
///      sim time and common/rng.h; order-insensitive folds over unordered
///      state carry lint:allow(R7).
///  R8  WAL grammar completeness: every record tag appended to the WAL
///      (string literal starting an AppendWal record) has a parse arm in
///      ReplayWal (a `kind == "TAG"` comparison), and every arm parses a
///      tag that some writer appends. A written-but-unreplayable tag fails
///      recovery as "unknown WAL record"; a replayed-but-never-written tag
///      is a dead grammar arm hiding a renamed writer.
///  R9  thread-safety annotations: in obs/, storage/, and compensation/ —
///      the layers whose long-lived objects a threaded caller would share —
///      any class declaring a std::mutex/shared_mutex member must annotate
///      every other data member with AXMLX_GUARDED_BY(...) (macros in
///      common/thread_annotations.h, enforced by clang -Wthread-safety
///      under AXMLX_WERROR). std::atomic and const members are exempt.
///  R10 name-registry consistency: registry constants live in exactly one
///      home table (kEv* in common/trace.h, kSpan* in obs/span.h, kEvFr*
///      in obs/flight_recorder.h, kMetric* in obs/metric_names.h), no two
///      entries of a table share a string value, and every metric-name
///      literal passed to GetCounter/GetGauge/GetHistogram is declared in
///      the kMetric* table — the AxmlStats introspection document and
///      axmlx_report aggregate by these strings, so an off-table or
///      double-defined name silently splits a series.
///  R11 keepalive watch ownership: `ChildEdge::invoked_peer` is written
///      (assigned, cleared, swapped or otherwise mutated) only inside the
///      body of `AxmlPeer::SetEdgeTarget`, which gives up the edge's
///      keepalive watch on the old target first. Any other write can leak
///      a watch, and a leaked watch keeps the monitor — and the simulated
///      clock — running after its transaction resolved.
///
/// A finding can be suppressed by putting `lint:allow(Rn)` in a comment on
/// the offending line or on the line directly above it (reserved for cases
/// the rule cannot see, e.g. a dispatch arm handled by a subclass override
/// or an order-insensitive fold over an unordered map).
namespace axmlx::lint {

/// One input to the linter. `path` is relative to the scanned root
/// (e.g. "txn/peer.cc") — rules select special files by path suffix.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation, anchored to file:line.
struct Finding {
  std::string rule;     ///< "R1".."R11".
  std::string file;     ///< SourceFile::path of the offending file.
  int line = 1;         ///< 1-based line of the violation.
  std::string message;  ///< Human-readable explanation.
};

/// Runs all rules over `files` and returns the findings, ordered by rule
/// then file then line. An empty result means the tree is clean.
std::vector<Finding> RunLint(const std::vector<SourceFile>& files);

/// Renders findings one per line: "path:line: [Rn] message".
std::string FormatFindings(const std::vector<Finding>& findings);

/// Renders findings as a stable JSON array (one object per finding with
/// "rule", "file", "line", "message" keys, ordered like FormatFindings) so
/// CI and axmlx_report can consume results mechanically.
std::string FormatFindingsJson(const std::vector<Finding>& findings);

/// Loads every .h/.cc file under `root` (recursively) with root-relative
/// paths, sorted for determinism. Returns false if `root` is not a
/// readable directory.
bool LoadTree(const std::string& root, std::vector<SourceFile>* files,
              std::string* error);

}  // namespace axmlx::lint

#endif  // AXMLX_TOOLS_AXMLX_LINT_LINT_H_
