#pragma once
// Compact binary hypergraph format + mmap-backed zero-copy reader.
//
// The text hMETIS format must be parsed token by token and the parsed graph
// held in memory, which caps every solver in this repo at instances that fit
// RAM twice over (text + CSR). This format stores the exact dual-CSR layout
// of hp::Hypergraph — edge→pins and node→incident-edges — as raw
// little-endian arrays behind a versioned header, so a reader can mmap the
// file and serve pin/incidence spans directly out of the page cache with no
// parsing, no allocation, and no per-edge overhead. Streaming algorithms
// (src/stream/stream_partitioner, restream_refiner) touch only the sections
// they need; pages they are done with can be dropped with
// drop_resident_pages() to keep peak RSS at a small fraction of an
// in-memory solver's.
//
// Layout (all fields little-endian, every section 8-byte aligned):
//
//   BinaryHeader  (64 bytes: magic "HPBH", version, n, m, ρ, weight flags)
//   edge_offsets  uint64 × (m+1)        pins of edge e live at
//   pins          uint32 × ρ  (+pad)      [edge_offsets[e], edge_offsets[e+1])
//   node_offsets  uint64 × (n+1)        incident edges of node v live at
//   incident      uint32 × ρ  (+pad)      [node_offsets[v], node_offsets[v+1])
//   node_weights  int64 × n             present iff flag bit 0
//   edge_weights  int64 × m             present iff flag bit 1
//
// Section positions are derived from the header alone (no section table);
// the version field gates any future layout change.

#include <cstdint>
#include <span>
#include <string>

#include "hyperpart/core/hypergraph.hpp"

namespace hp::stream {

inline constexpr std::uint32_t kBinaryVersion = 1;
inline constexpr std::uint32_t kFlagNodeWeights = 1u << 0;
inline constexpr std::uint32_t kFlagEdgeWeights = 1u << 1;

struct BinaryHeader {
  char magic[4];               // "HPBH"
  std::uint32_t version;       // kBinaryVersion
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t num_pins;
  std::uint32_t flags;         // kFlagNodeWeights | kFlagEdgeWeights
  std::uint32_t header_bytes;  // sizeof(BinaryHeader), sanity-checked on load
  std::uint64_t reserved[3];   // zero; room for future sections
};
static_assert(sizeof(BinaryHeader) == 64);

/// Serialize g into the binary format. Overwrites path.
void write_binary_file(const std::string& path, const Hypergraph& g);

/// Parse an hMETIS text file and write it back out in the binary format.
/// (Parsing holds the graph in memory once; the produced file is then
/// readable forever after at zero parse cost.)
void convert_hmetis_file(const std::string& hmetis_path,
                         const std::string& binary_path);

/// True when the file starts with the binary magic (cheap 4-byte sniff, no
/// throw on unreadable/short files — they are simply not binary).
[[nodiscard]] bool is_binary_file(const std::string& path);

/// Load a hypergraph file in either format, sniffed with is_binary_file:
/// HPBH is mapped and copied into memory, anything else is parsed as
/// hMETIS text. Throws what MappedHypergraph / read_hmetis_file throw.
[[nodiscard]] Hypergraph read_hypergraph_file(const std::string& path);

/// Read-only mmap view of a binary hypergraph file. Exposes the same
/// pin-iteration interface as hp::Hypergraph (num_edges/pins/edge_weight,
/// num_nodes/incident_edges/node_weight), so the generic metric templates
/// (hp::cost_of, hp::lambda_of) and the streaming algorithms run on it
/// unchanged. Spans point straight into the mapping: zero-copy, valid for
/// the lifetime of this object.
class MappedHypergraph {
 public:
  /// Opens and maps the file; throws std::runtime_error on I/O errors, bad
  /// magic/version, or a file too short for its own header counts.
  explicit MappedHypergraph(const std::string& path);
  ~MappedHypergraph();

  MappedHypergraph(MappedHypergraph&& other) noexcept;
  MappedHypergraph& operator=(MappedHypergraph&& other) noexcept;
  MappedHypergraph(const MappedHypergraph&) = delete;
  MappedHypergraph& operator=(const MappedHypergraph&) = delete;

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] EdgeId num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] std::uint64_t num_pins() const noexcept { return num_pins_; }

  [[nodiscard]] std::span<const NodeId> pins(EdgeId e) const noexcept {
    return {pins_ + edge_offsets_[e], pins_ + edge_offsets_[e + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId v) const noexcept {
    return {incident_ + node_offsets_[v], incident_ + node_offsets_[v + 1]};
  }
  [[nodiscard]] std::uint32_t edge_size(EdgeId e) const noexcept {
    return static_cast<std::uint32_t>(edge_offsets_[e + 1] -
                                      edge_offsets_[e]);
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(node_offsets_[v + 1] -
                                      node_offsets_[v]);
  }

  [[nodiscard]] bool has_node_weights() const noexcept {
    return node_weights_ != nullptr;
  }
  [[nodiscard]] bool has_edge_weights() const noexcept {
    return edge_weights_ != nullptr;
  }
  [[nodiscard]] Weight node_weight(NodeId v) const noexcept {
    return node_weights_ ? node_weights_[v] : 1;
  }
  [[nodiscard]] Weight edge_weight(EdgeId e) const noexcept {
    return edge_weights_ ? edge_weights_[e] : 1;
  }
  /// Σ node weights (n when unweighted). Computed once on first call; the
  /// scan touches only the node-weight section.
  [[nodiscard]] Weight total_node_weight() const noexcept;

  /// Deep-copy into an in-memory Hypergraph (identical structure and
  /// weights). For code paths that need the full mutable graph.
  [[nodiscard]] Hypergraph materialize() const;

  /// Structural sanity check mirroring Hypergraph::validate(); faults in
  /// every section, so tests only.
  [[nodiscard]] bool validate() const noexcept;

  /// Advise the kernel to drop this mapping's resident pages
  /// (best-effort). Streaming phases call this between passes so pages a
  /// finished phase touched stop counting against peak RSS.
  void drop_resident_pages() const noexcept;

  [[nodiscard]] std::string summary() const;

 private:
  void unmap() noexcept;

  void* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  std::uint64_t num_pins_ = 0;
  const std::uint64_t* edge_offsets_ = nullptr;
  const NodeId* pins_ = nullptr;
  const std::uint64_t* node_offsets_ = nullptr;
  const EdgeId* incident_ = nullptr;
  const Weight* node_weights_ = nullptr;
  const Weight* edge_weights_ = nullptr;
  mutable Weight total_node_weight_ = -1;  // lazy cache
};

}  // namespace hp::stream
