// Checkpoint container format: byte-stream round-trips, corruption
// rejection (CRC, truncation, bad magic, wrong version, giant counts) and
// the temp-then-rename atomicity contract (docs/ROBUSTNESS.md), plus the
// tampered-state rejection of the ant colony, mapping knowledge, mobility
// models and battery bank.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "aco/ant_routing.hpp"
#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "common/dense_bitset.hpp"
#include "common/error.hpp"
#include "core/map_knowledge.hpp"
#include "common/rng.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "energy/battery.hpp"
#include "experiments/replicate.hpp"
#include "experiments/traffic_experiments.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet::snapshot {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << path;
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

enum class Fruit : std::uint8_t { kApple, kBanana, kCherry };

TEST(ByteStreamTest, RoundTripsEveryScalarType) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.size(77);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");
  w.blob({1, 2, 3});
  w.pod_vec(std::vector<std::uint32_t>{5, 6, 7});
  w.pod_vec(std::vector<double>{1.5, -2.5});
  w.scalar(Fruit::kCherry);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.size(), 77u);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  std::vector<std::uint32_t> ints;
  r.pod_vec(ints);
  EXPECT_EQ(ints, (std::vector<std::uint32_t>{5, 6, 7}));
  std::vector<double> doubles;
  r.pod_vec(doubles);
  EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.scalar<Fruit>(), Fruit::kCherry);
  EXPECT_TRUE(r.done());
}

TEST(ByteStreamTest, TruncatedReadNamesTheOffset) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  try {
    r.u64();
    FAIL() << "read past the end succeeded";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 4"), std::string::npos)
        << e.what();
  }
}

TEST(ByteStreamTest, GiantCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.size(static_cast<std::size_t>(1) << 60);  // absurd element count
  ByteReader r(w.bytes());
  EXPECT_THROW(r.counted(8), ConfigError);
  ByteReader r2(w.bytes());
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r2.pod_vec(v), ConfigError);
}

TEST(ByteStreamTest, ScalarRangeCheckCatchesNarrowingCorruption) {
  ByteWriter w;
  w.u64(0x1'0000'0000ull);  // does not fit a 32-bit NodeId
  ByteReader r(w.bytes());
  EXPECT_THROW(r.scalar<std::uint32_t>(), ConfigError);
}

TEST(ByteStreamTest, BadBooleanRejected) {
  ByteWriter w;
  w.u8(2);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.boolean(), ConfigError);
}

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.identity = {"routing", 3, 2010, 120, 300};
  for (std::uint64_t run = 0; run < 3; ++run) {
    RunRecord record;
    record.step = 100 + run;
    ByteWriter w;
    w.u64(run * 17);
    w.str("payload-" + std::to_string(run));
    record.payload = w.take();
    ck.runs[run] = std::move(record);
  }
  return ck;
}

TEST(CheckpointFileTest, RoundTripsIdentityAndRunRecords) {
  const Checkpoint ck = sample_checkpoint();
  const std::string path = temp_path("roundtrip.snap");
  save_checkpoint(ck, path);
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.identity, ck.identity);
  ASSERT_EQ(loaded.runs.size(), ck.runs.size());
  for (const auto& [run, record] : ck.runs) {
    const auto it = loaded.runs.find(run);
    ASSERT_NE(it, loaded.runs.end());
    EXPECT_EQ(it->second.step, record.step);
    EXPECT_EQ(it->second.payload, record.payload);
  }
}

TEST(CheckpointFileTest, SaveLeavesNoTempFile) {
  const std::string path = temp_path("atomic.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "temp file left behind after save";
}

TEST(CheckpointFileTest, MissingFileRejected) {
  EXPECT_THROW(load_checkpoint(temp_path("never_written.snap")), ConfigError);
}

TEST(CheckpointFileTest, BadMagicRejected) {
  const std::string path = temp_path("badmagic.snap");
  std::vector<std::uint8_t> junk(64, 0x5A);
  write_bytes(path, junk);
  try {
    load_checkpoint(path);
    FAIL() << "bad magic accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileTest, WrongVersionRejected) {
  const std::string path = temp_path("badversion.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[8] = 0xFF;  // version field follows the 8-byte magic
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "wrong version accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileTest, EveryTruncationPointRejected) {
  const std::string path = temp_path("trunc.snap");
  save_checkpoint(sample_checkpoint(), path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  // Chop the file at a spread of lengths (including mid-header and
  // mid-chunk): none may load, none may crash.
  for (std::size_t len = 0; len < bytes.size();
       len += 1 + bytes.size() / 23) {
    const std::string cut = temp_path("trunc_cut.snap");
    write_bytes(cut, {bytes.begin(), bytes.begin() + len});
    EXPECT_THROW(load_checkpoint(cut), ConfigError) << "length " << len;
  }
}

TEST(CheckpointFileTest, EveryFlippedByteRejectedOrHarmless) {
  const std::string path = temp_path("flip.snap");
  save_checkpoint(sample_checkpoint(), path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  // Flip one byte at a stride of positions. Each flip must either be
  // caught (ConfigError — the expected case: every payload byte is under
  // a CRC) or at least never invoke UB / crash.
  std::size_t rejected = 0, flips = 0;
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 53) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0xFF;
    const std::string cut = temp_path("flip_cut.snap");
    write_bytes(cut, mutated);
    ++flips;
    try {
      (void)load_checkpoint(cut);
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  // The container has no slack bytes: every single-byte flip lands in the
  // magic, the version, a length, a CRC or CRC-covered payload.
  EXPECT_EQ(rejected, flips);
}

TEST(CheckpointFileTest, DuplicateRunChunkRejected) {
  // Hand-assemble a file whose run chunk appears twice: parsing must
  // reject the duplicate key instead of silently keeping either record.
  const std::string path = temp_path("dup.snap");
  Checkpoint ck = sample_checkpoint();
  save_checkpoint(ck, path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  // Locate the first run chunk: header is magic(8) + version(4) +
  // chunk_count(4); each chunk is id(4) + len(8) + crc(4) + payload.
  ByteReader r(bytes.data(), bytes.size());
  r.raw(8);
  (void)r.u32();
  const std::size_t count_pos = r.position();
  const std::uint32_t chunk_count = r.u32();
  ASSERT_GE(chunk_count, 2u);
  // Skip the identity chunk, then capture the first run chunk's extent.
  (void)r.u32();
  const std::size_t id_len = r.size();
  (void)r.u32();
  r.raw(id_len);
  const std::size_t run_chunk_begin = r.position();
  (void)r.u32();
  const std::size_t run_len = r.size();
  (void)r.u32();
  r.raw(run_len);
  const std::size_t run_chunk_end = r.position();
  // Append a copy of that chunk and bump the chunk count.
  std::vector<std::uint8_t> dup(bytes.begin() + run_chunk_begin,
                                bytes.begin() + run_chunk_end);
  bytes.insert(bytes.end(), dup.begin(), dup.end());
  const std::uint32_t new_count = chunk_count + 1;
  for (int i = 0; i < 4; ++i)
    bytes[count_pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(new_count >> (8 * i));
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "duplicate run chunk accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

/// The build-then-write checkpoint writer save_checkpoint replaced: each
/// chunk body is assembled in memory, copied into one file body, then
/// written. Kept as the byte-level oracle for the streaming writer.
std::vector<std::uint8_t> legacy_checkpoint_bytes(const Checkpoint& ck) {
  const auto append_chunk = [](ByteWriter& body, std::uint32_t id,
                               ByteWriter&& chunk) {
    const std::vector<std::uint8_t> bytes = chunk.take();
    body.u32(id);
    body.u64(bytes.size());
    body.u32(crc32(bytes.data(), bytes.size()));
    body.raw(bytes.data(), bytes.size());
  };
  ByteWriter body;
  {
    ByteWriter chunk;
    chunk.str(ck.identity.kind);
    chunk.u64(ck.identity.runs);
    chunk.u64(ck.identity.run_seed_base);
    chunk.u64(ck.identity.node_count);
    chunk.u64(ck.identity.steps);
    append_chunk(body, 1, std::move(chunk));
  }
  for (const auto& [run, record] : ck.runs) {
    ByteWriter chunk;
    chunk.u64(run);
    chunk.u64(record.step);
    chunk.blob(record.payload);
    append_chunk(body, 2, std::move(chunk));
  }
  ByteWriter file;
  file.raw(reinterpret_cast<const std::uint8_t*>(kSnapshotMagic),
           sizeof kSnapshotMagic);
  file.u32(kSnapshotVersion);
  file.u32(static_cast<std::uint32_t>(1 + ck.runs.size()));
  file.raw(body.bytes().data(), body.bytes().size());
  return file.take();
}

TEST(CheckpointFileTest, StreamedBytesMatchBuildThenWriteOracle) {
  Checkpoint identity_only;
  identity_only.identity = {"field", 1, 7, 1000, 500};
  Checkpoint empty_payload = identity_only;
  empty_payload.runs[4] = RunRecord{12, {}};
  Checkpoint large = sample_checkpoint();
  large.runs[9] = RunRecord{900, std::vector<std::uint8_t>(70000)};
  for (std::size_t i = 0; i < large.runs[9].payload.size(); ++i)
    large.runs[9].payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  int k = 0;
  for (const Checkpoint* ck :
       {&identity_only, &empty_payload, &large}) {
    const std::string path = temp_path("oracle.snap");
    save_checkpoint(*ck, path);
    EXPECT_EQ(read_bytes(path), legacy_checkpoint_bytes(*ck)) << "case " << k;
    const Checkpoint loaded = load_checkpoint(path);
    EXPECT_EQ(loaded.identity, ck->identity) << "case " << k;
    ASSERT_EQ(loaded.runs.size(), ck->runs.size()) << "case " << k;
    for (const auto& [run, record] : ck->runs) {
      EXPECT_EQ(loaded.runs.at(run).step, record.step);
      EXPECT_EQ(loaded.runs.at(run).payload, record.payload);
    }
    ++k;
  }
}

TEST(CheckpointFileTest, ChunkLongerThanTheFileRejectedBeforeAllocating) {
  const std::string path = temp_path("giant_chunk.snap");
  save_checkpoint(sample_checkpoint(), path);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  // The identity chunk's header sits right after magic(8) + version(4) +
  // chunk_count(4); its length field follows the 4-byte id. A length of
  // 2^60 bytes cannot be allocated: reaching for it would throw
  // std::bad_alloc, not the ConfigError the length check raises.
  const std::size_t chunk_at = 16;
  for (int i = 0; i < 8; ++i)
    bytes[chunk_at + 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((std::uint64_t{1} << 60) >> (8 * i));
  write_bytes(path, bytes);
  try {
    load_checkpoint(path);
    FAIL() << "giant chunk length accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("overruns the file at byte 16"), std::string::npos)
        << what;
  }
}

// An ant colony checkpoint written field by field in save_state's layout:
// kColonyNodes pheromone rows (row 1 holds one entry), the given ants, an
// RNG state and the four overhead counters.
constexpr std::size_t kColonyNodes = 6;
constexpr std::uint32_t kColonyTtl = 3;

struct AntRecord {
  std::vector<NodeId> path;
  std::size_t position = 0;
  bool backward = false;
};

std::vector<std::uint8_t> colony_bytes(const std::vector<AntRecord>& ants,
                                       NodeId pheromone_key = 2) {
  ByteWriter w;
  w.size(kColonyNodes);
  for (std::size_t u = 0; u < kColonyNodes; ++u) {
    w.size(u == 1 ? 1 : 0);
    if (u == 1) {
      w.scalar(pheromone_key);
      w.f64(0.5);
    }
  }
  w.size(ants.size());
  for (const AntRecord& ant : ants) {
    w.pod_vec(ant.path);
    w.size(ant.position);
    w.boolean(ant.backward);
    w.f64(1.0);  // trip time
  }
  Rng(11).save_state(w);
  for (int i = 0; i < 4; ++i) w.size(0);
  return w.bytes();
}

AntRoutingSystem small_colony() {
  AntRoutingConfig cfg;
  cfg.ant_ttl = kColonyTtl;
  std::vector<bool> is_gateway(kColonyNodes, false);
  is_gateway[0] = true;
  return AntRoutingSystem(kColonyNodes, is_gateway, cfg, Rng(1));
}

void expect_colony_rejected(const std::vector<std::uint8_t>& bytes,
                            const std::string& what) {
  AntRoutingSystem colony = small_colony();
  ByteReader r(bytes);
  try {
    colony.load_state(r);
    FAIL() << "tampered colony accepted; expected: " << what;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("record at byte"),
              std::string::npos)
        << e.what();
  }
}

const std::vector<AntRecord> kValidAnts = {
    {{3, 2}, 0, false},       // forward, one hop out
    {{5, 4, 1, 0}, 3, true},  // backward at the gateway, ttl-long path
};

TEST(AntColonySnapshotTest, ValidStreamRoundTrips) {
  const std::vector<std::uint8_t> bytes = colony_bytes(kValidAnts);
  AntRoutingSystem colony = small_colony();
  ByteReader r(bytes);
  colony.load_state(r);
  EXPECT_EQ(colony.active_ants(), 2u);
  EXPECT_DOUBLE_EQ(colony.pheromone(1, 2), 0.5);
  ByteWriter w;
  colony.save_state(w);
  EXPECT_EQ(w.bytes(), bytes);
}

TEST(AntColonySnapshotTest, PathNodeOutOfRangeRejected) {
  // Overwrite the first ant's second node id in place: the loop-avoidance
  // stamp array would otherwise turn it into an out-of-bounds write.
  std::vector<std::uint8_t> bytes = colony_bytes(kValidAnts);
  ByteReader r(bytes);
  (void)r.size();
  for (std::size_t u = 0; u < kColonyNodes; ++u) {
    const std::size_t k = r.size();
    for (std::size_t i = 0; i < k; ++i) {
      (void)r.u64();  // key
      (void)r.f64();  // pheromone
    }
  }
  (void)r.size();  // ant count
  (void)r.size();  // path length
  (void)r.u64();   // path[0]
  // Node ids are 8-byte little-endian scalars; setting the low four bytes
  // gives kInvalidNode, which still fits a NodeId.
  const std::size_t at = r.position();
  for (int i = 0; i < 4; ++i) bytes[at + static_cast<std::size_t>(i)] = 0xFF;
  expect_colony_rejected(bytes, "ant path names an unknown node");
  bytes = colony_bytes({{{3, static_cast<NodeId>(kColonyNodes)}, 0, false}});
  expect_colony_rejected(bytes, "ant path names an unknown node");
}

TEST(AntColonySnapshotTest, EmptyPathRejected) {
  expect_colony_rejected(colony_bytes({{{}, 0, false}}),
                         "ant with an empty path");
}

TEST(AntColonySnapshotTest, PositionPastPathRejected) {
  expect_colony_rejected(colony_bytes({{{3, 2}, 2, true}}),
                         "ant position past the end of its path");
}

TEST(AntColonySnapshotTest, BackwardAntAtHomeRejected) {
  expect_colony_rejected(colony_bytes({{{3, 2, 0}, 0, true}}),
                         "backward ant already home");
}

TEST(AntColonySnapshotTest, PathLongerThanTtlRejected) {
  expect_colony_rejected(colony_bytes({{{5, 4, 3, 2, 1}, 0, false}}),
                         "ant path longer than the ttl allows");
}

TEST(AntColonySnapshotTest, PheromoneKeyOutOfRangeRejected) {
  expect_colony_rejected(
      colony_bytes(kValidAnts, static_cast<NodeId>(kColonyNodes)),
      "pheromone entry names an unknown node");
}

// A mapping agent's knowledge written field by field in save_state's
// layout: node-pair edge sets (bit u·n + v), visit times, then the expiry
// epoch state. The valid record has expiry on, two first-hand arcs and one
// hearsay arc.
constexpr std::size_t kKnowledgeNodes = 4;

DenseBitset pair_set(std::initializer_list<std::size_t> bits,
                     std::size_t size = kKnowledgeNodes * kKnowledgeNodes) {
  DenseBitset set(size);
  for (std::size_t b : bits) set.set(b);
  return set;
}

struct KnowledgeRecord {
  DenseBitset first_hand = pair_set({1, 4});
  DenseBitset combined = pair_set({1, 4, 11});
  std::vector<std::int64_t> first_visit{3, 5, kNeverVisited, kNeverVisited};
  std::vector<std::int64_t> any_visit{3, 5, 2, kNeverVisited};
  bool expiry = true;
  DenseBitset recent = pair_set({11});
  std::vector<std::int64_t> prev_visit{kNeverVisited, kNeverVisited, 2,
                                       kNeverVisited};
  std::vector<std::int64_t> recent_visit{kNeverVisited, kNeverVisited, 2,
                                         kNeverVisited};
};

std::vector<std::uint8_t> knowledge_bytes(const KnowledgeRecord& k) {
  ByteWriter w;
  w.size(kKnowledgeNodes);
  k.first_hand.save_state(w);
  k.combined.save_state(w);
  w.pod_vec(k.first_visit);
  w.pod_vec(k.any_visit);
  w.boolean(k.expiry);
  w.size(4);  // last rotation
  k.recent.save_state(w);
  w.pod_vec(k.prev_visit);
  w.pod_vec(k.recent_visit);
  return w.bytes();
}

void expect_knowledge_rejected(const std::vector<std::uint8_t>& bytes,
                               const std::string& what) {
  EdgeIndex index{Graph(kKnowledgeNodes)};
  MapKnowledge knowledge(index);
  ByteReader r(bytes);
  try {
    knowledge.load_state(r, index);
    FAIL() << "tampered knowledge accepted; expected: " << what;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(" at byte "), std::string::npos)
        << e.what();
  }
}

TEST(MapKnowledgeSnapshotTest, ValidStreamRoundTrips) {
  const std::vector<std::uint8_t> bytes = knowledge_bytes({});
  EdgeIndex index{Graph(kKnowledgeNodes)};
  MapKnowledge knowledge(index);
  ByteReader r(bytes);
  knowledge.load_state(r, index);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(index.size(), 3u) << "each stored arc registered once";
  EXPECT_TRUE(knowledge.knows_edge_first_hand(0, 1));
  EXPECT_TRUE(knowledge.knows_edge_first_hand(1, 0));
  EXPECT_TRUE(knowledge.knows_edge(2, 3));
  EXPECT_FALSE(knowledge.knows_edge_first_hand(2, 3));
  EXPECT_EQ(knowledge.last_visit_any(2), 2);
  ByteWriter w;
  knowledge.save_state(w);
  EXPECT_EQ(w.bytes(), bytes);
}

TEST(MapKnowledgeSnapshotTest, ShortVisitArraysRejected) {
  // A short any-visit array used to be read past its end by
  // last_visit_any(); every per-node array is checked.
  for (auto field : {&KnowledgeRecord::first_visit,
                     &KnowledgeRecord::any_visit,
                     &KnowledgeRecord::prev_visit,
                     &KnowledgeRecord::recent_visit}) {
    KnowledgeRecord k;
    (k.*field).pop_back();
    expect_knowledge_rejected(knowledge_bytes(k),
                              "visit-time array of length 3, expected 4");
  }
}

TEST(MapKnowledgeSnapshotTest, EpochArraysWithoutExpiryRejected) {
  KnowledgeRecord k;
  k.expiry = false;
  k.recent = DenseBitset();
  expect_knowledge_rejected(knowledge_bytes(k),
                            "visit-time array of length 4, expected 0");
  k.prev_visit.clear();
  k.recent_visit.clear();
  const std::vector<std::uint8_t> valid = knowledge_bytes(k);
  EdgeIndex index{Graph(kKnowledgeNodes)};
  MapKnowledge knowledge(index);
  ByteReader r(valid);
  EXPECT_NO_THROW(knowledge.load_state(r, index));
  k.recent = pair_set({11});
  expect_knowledge_rejected(knowledge_bytes(k),
                            "epoch edge set without expiry");
}

TEST(MapKnowledgeSnapshotTest, EdgeSetOfWrongSizeRejected) {
  for (auto field : {&KnowledgeRecord::first_hand,
                     &KnowledgeRecord::combined, &KnowledgeRecord::recent}) {
    KnowledgeRecord k;
    k.*field = pair_set({1}, 17);
    expect_knowledge_rejected(knowledge_bytes(k),
                              "edge set of 17 bits, expected 16");
  }
}

TEST(MapKnowledgeSnapshotTest, FirstHandOutsideCombinedRejected) {
  KnowledgeRecord k;
  k.combined = pair_set({1, 11});  // drops first-hand arc 1→0
  expect_knowledge_rejected(
      knowledge_bytes(k),
      "first-hand knowledge outside the combined map");
}

// Per-node state is indexed by node id on every step, so a restored array
// of the wrong length, or a charge outside what stepping can produce, is
// rejected with its byte offset.

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <class State>
void expect_state_rejected(State& state,
                           const std::vector<std::uint8_t>& bytes,
                           const std::string& what) {
  ByteReader r(bytes);
  try {
    state.load_state(r);
    FAIL() << "tampered state accepted; expected: " << what;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

template <class State>
std::vector<std::uint8_t> state_bytes(const State& state) {
  ByteWriter w;
  state.save_state(w);
  return w.bytes();
}

constexpr std::size_t kMobilityNodes = 4;
const Aabb kMobilityArena{{0.0, 0.0}, {50.0, 50.0}};
const std::vector<bool> kMobilityMask{true, false, true, false};

TEST(MobilitySnapshotTest, RandomDirectionWrongLengthsRejected) {
  RandomDirectionMobility model(kMobilityArena, kMobilityMask, {}, Rng(5));
  const std::vector<std::uint8_t> valid = state_bytes(model);
  std::vector<std::uint8_t> bytes = valid;
  put_u64(bytes, 0, kMobilityNodes - 1);
  expect_state_rejected(model, bytes,
                        "mobility speeds of length 3, expected 4 at byte 0");
  bytes = valid;
  const std::size_t headings_at = 8 + 8 * kMobilityNodes;
  put_u64(bytes, headings_at, kMobilityNodes + 1);
  expect_state_rejected(model, bytes,
                        "mobility headings of length 5, expected 4 at byte " +
                            std::to_string(headings_at));
  ByteReader r(valid);
  model.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(state_bytes(model), valid);
}

TEST(BatterySnapshotTest, WrongChargeCountRejected) {
  BatteryBank bank(kMobilityNodes, kMobilityMask, {2.0, 0.5});
  std::vector<std::uint8_t> bytes = state_bytes(bank);
  put_u64(bytes, 0, kMobilityNodes + 1);
  expect_state_rejected(bank, bytes,
                        "battery charges of length 5, expected 4 at byte 0");
}

TEST(BatterySnapshotTest, ChargeOutsideCapacityRejected) {
  // Node 1 is mains-powered: its charge is restored but never stepped
  // again, so a value stepping could not produce would stick.
  BatteryBank bank(kMobilityNodes, kMobilityMask, {2.0, 0.5});
  const std::vector<std::uint8_t> valid = state_bytes(bank);
  constexpr std::size_t kChargeAt = 8 + 8 * 1;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           -0.0, 2.5}) {
    std::vector<std::uint8_t> bytes = valid;
    put_u64(bytes, kChargeAt, std::bit_cast<std::uint64_t>(bad));
    expect_state_rejected(
        bank, bytes,
        "outside [0, capacity] at byte " + std::to_string(kChargeAt));
  }
  for (const double edge : {0.0, 2.0}) {
    std::vector<std::uint8_t> bytes = valid;
    put_u64(bytes, kChargeAt, std::bit_cast<std::uint64_t>(edge));
    ByteReader r(bytes);
    bank.load_state(r);
    EXPECT_EQ(bank.battery(1).charge(), edge);
    EXPECT_EQ(state_bytes(bank), bytes);
  }
}

TEST(CheckpointerTest, IdentityMismatchRejectedAtConstruction) {
  const std::string path = temp_path("identity.snap");
  save_checkpoint(sample_checkpoint(), path);
  const ExperimentIdentity right{"routing", 3, 2010, 120, 300};
  // Matching identity constructs fine.
  EXPECT_NO_THROW(ExperimentCheckpointer(right, "", 50, path));
  // Any drifted field — kind, runs, seed base, scale, step budget — fails.
  for (const ExperimentIdentity& wrong :
       {ExperimentIdentity{"mapping", 3, 2010, 120, 300},
        ExperimentIdentity{"routing", 4, 2010, 120, 300},
        ExperimentIdentity{"routing", 3, 2011, 120, 300},
        ExperimentIdentity{"routing", 3, 2010, 121, 300},
        ExperimentIdentity{"routing", 3, 2010, 120, 301}}) {
    EXPECT_THROW(ExperimentCheckpointer(wrong, "", 50, path), ConfigError);
  }
}

TEST(CheckpointerTest, SaveDueHonoursPeriodAndResumePoint) {
  const std::string path = temp_path("savedue.snap");
  ExperimentCheckpointer saver({"routing", 1, 7, 10, 100}, path, 25, "");
  RunCheckpointPort port = saver.port(0);
  EXPECT_FALSE(port.resuming());
  EXPECT_FALSE(port.save_due(0)) << "step 0 is the initial state";
  EXPECT_FALSE(port.save_due(24));
  EXPECT_TRUE(port.save_due(25));
  EXPECT_TRUE(port.save_due(50));
  port.save(25, [](ByteWriter& w) { w.u64(99); });
  // Resume from that file: the resumed step must not immediately re-save.
  ExperimentCheckpointer resumer({"routing", 1, 7, 10, 100}, path, 25, path);
  RunCheckpointPort rport = resumer.port(0);
  ASSERT_TRUE(rport.resuming());
  std::uint64_t restored = 0;
  EXPECT_EQ(rport.restore([&](ByteReader& r) { restored = r.u64(); }), 25u);
  EXPECT_EQ(restored, 99u);
  EXPECT_FALSE(rport.save_due(25)) << "that state is already on disk";
  EXPECT_TRUE(rport.save_due(50));
}

// What each task family writes into a checkpoint, pinned as an FNV-1a
// digest of every run record's payload (task state, then telemetry) at
// step 40 of a 60-step, two-run replication checkpointing every 20 steps.
// The resume suites only compare a resumed run with an uninterrupted one
// of the same build; these digests catch a change of field order or
// content that both legs would share. A deliberate format change re-pins
// them and says so.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

FaultPlan golden_chaos_plan() {
  FaultPlan plan;
  plan.node_crash_probability = 0.04;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.05;
  plan.agent_loss_probability = 0.02;
  plan.gateway_respawn_probability = 0.05;
  plan.watchdog_ttl = 20;
  return plan;
}

RoutingScenario golden_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 70;
  return RoutingScenario(params, 17);
}

/// Replicates `task` twice under AGENTNET_CHECKPOINT_EVERY=20 and returns
/// "<digest run 0> <digest run 1>" of the records on disk, which must all
/// sit at step 40.
template <typename Task, typename RunOne>
std::string payload_digests(const char* kind, std::size_t nodes,
                            std::size_t steps, Task task, bool faults,
                            RunOne run_one) {
  task.faults = faults ? golden_chaos_plan() : FaultPlan{};
  const std::string path =
      temp_path(std::string("golden_") + kind + (faults ? "_f" : "") +
                ".snap");
  ::setenv("AGENTNET_CHECKPOINT", path.c_str(), 1);
  ::setenv("AGENTNET_CHECKPOINT_EVERY", "20", 1);
  replicate({kind, 2, 31, nodes, steps, 1, obs::ObsConfig{}, FaultConfig{}},
            task, run_one);
  ::unsetenv("AGENTNET_CHECKPOINT");
  ::unsetenv("AGENTNET_CHECKPOINT_EVERY");
  std::string out;
  for (const auto& [run, record] : load_checkpoint(path).runs) {
    EXPECT_EQ(record.step, 40u) << kind << " run " << run;
    out += (out.empty() ? "" : " ") + hex(fnv1a(record.payload));
  }
  return out;
}

#if AGENTNET_OBS_LEVEL >= 1

TEST(CheckpointGoldenTest, RoutingPayloadsPinned) {
  const RoutingScenario scenario = golden_scenario();
  RoutingTaskConfig task;
  task.population = 12;
  task.steps = 60;
  task.measure_from = 30;
  task.record_oracle = true;
  task.traffic = true;
  task.agent.communicate = true;
  const auto run = [&](const RoutingTaskConfig& config, Rng rng) {
    return run_routing_task(scenario, config, rng);
  };
  EXPECT_EQ(payload_digests("routing", 50, 60, task, false, run),
            "61e29cdacfccb8fc 6dac98ac44a59b25");
  EXPECT_EQ(payload_digests("routing", 50, 60, task, true, run),
            "171a45ec2ea66baa 1daed33a74e5cb22");
}

TEST(CheckpointGoldenTest, MappingPayloadsPinned) {
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  const GeneratedNetwork network = generate_target_edge_network(params, 5);
  MappingTaskConfig task;
  task.population = 4;
  task.max_steps = 50;  // steps 0..50: the last save is at 40
  const auto run = [&](const MappingTaskConfig& config, Rng rng) {
    World world = World::frozen(network);
    return run_mapping_task(world, config, rng);
  };
  EXPECT_EQ(payload_digests("mapping", 40, 50, task, false, run),
            "d3cd525b8da6ab93 ae5269201dbad5d4");
  EXPECT_EQ(payload_digests("mapping", 40, 50, task, true, run),
            "6d0d13f526520653 008ead68f03695c8");
}

TEST(CheckpointGoldenTest, TrafficPayloadsPinned) {
  const RoutingScenario scenario = golden_scenario();
  TrafficTaskConfig task;
  task.steps = 60;
  task.measure_from = 30;
  task.workload.offered_load = 0.4;
  const auto run = [&](const TrafficTaskConfig& config, Rng rng) {
    return run_traffic_task(scenario, config, rng);
  };
  EXPECT_EQ(payload_digests("traffic", 50, 60, task, false, run),
            "d52c9b177813c96e a15589a6a2fe002d");
  EXPECT_EQ(payload_digests("traffic", 50, 60, task, true, run),
            "9d8974e5fc9f6958 df855b309a5d2e29");
}

TEST(CheckpointGoldenTest, AntColonyPayloadsPinned) {
  const RoutingScenario scenario = golden_scenario();
  AntRoutingTaskConfig task;
  task.steps = 60;
  task.measure_from = 30;
  const auto run = [&](const AntRoutingTaskConfig& config, Rng rng) {
    return run_ant_routing_task(scenario, config, rng);
  };
  EXPECT_EQ(payload_digests("aco", 50, 60, task, false, run),
            "9c273534a124c7e3 fb5cba8c410f92d8");
  EXPECT_EQ(payload_digests("aco", 50, 60, task, true, run),
            "f0647e60ced88f88 2b8b3629e0368420");
}

TEST(CheckpointGoldenTest, DvPayloadsPinned) {
  const RoutingScenario scenario = golden_scenario();
  DvRoutingTaskConfig task;
  task.population = 12;
  task.steps = 60;
  task.measure_from = 30;
  const auto run = [&](const DvRoutingTaskConfig& config, Rng rng) {
    return run_dv_routing_task(scenario, config, rng);
  };
  EXPECT_EQ(payload_digests("dv", 50, 60, task, false, run),
            "b6d5534f7c863a00 901dc93f27485275");
  EXPECT_EQ(payload_digests("dv", 50, 60, task, true, run),
            "977e2200ae79005a 08c804a0ea8c3785");
}

#endif  // AGENTNET_OBS_LEVEL >= 1

}  // namespace
}  // namespace agentnet::snapshot
