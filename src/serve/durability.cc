#include "serve/durability.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "storage/codec.h"
#include "storage/snapshot_io.h"

namespace slimfast {

namespace {

constexpr char kManifestName[] = "MANIFEST";

void AppendSessionState(const FusionSession::State& state,
                        std::string* out) {
  AppendArray(out, state.weights);
  AppendArray(out, state.predictions);
  AppendArray(out, state.source_accuracies);
  AppendArray(out, state.posterior_begin);
  AppendArray(out, state.posterior_values);
  AppendArray(out, state.posterior_probs);
  AppendI32(out, state.num_ingested_batches);
  AppendI32(out, state.num_relearns);
  AppendI32(out, state.pending_batches);
}

bool ReadSessionState(ByteReader* in, FusionSession::State* state) {
  return ReadArray(in, &state->weights) &&
         ReadArray(in, &state->predictions) &&
         ReadArray(in, &state->source_accuracies) &&
         ReadArray(in, &state->posterior_begin) &&
         ReadArray(in, &state->posterior_values) &&
         ReadArray(in, &state->posterior_probs) &&
         in->ReadI32(&state->num_ingested_batches) &&
         in->ReadI32(&state->num_relearns) &&
         in->ReadI32(&state->pending_batches);
}

}  // namespace

std::string ShardSnapshotPath(const std::string& dir, int32_t shard,
                              uint64_t applied_batches) {
  char name[64];
  std::snprintf(name, sizeof(name), "shard-%d-%020llu.snap", shard,
                static_cast<unsigned long long>(applied_batches));
  return dir + "/" + name;
}

Status WriteShardSnapshot(const std::string& path,
                          const ObservationStore& store,
                          const FusionSession::State& state) {
  std::string payload;
  AppendStoreColumns(store, &payload);
  AppendSessionState(state, &payload);
  return WriteSnapshotFile(path, payload);
}

Result<ShardCheckpoint> ReadShardSnapshot(const std::string& path) {
  SLIMFAST_ASSIGN_OR_RETURN(std::string payload, ReadSnapshotFile(path));
  ByteReader in(payload);
  ShardCheckpoint checkpoint;
  SLIMFAST_ASSIGN_OR_RETURN(checkpoint.store, ReadStoreColumns(&in));
  if (!ReadSessionState(&in, &checkpoint.state) || in.remaining() != 0) {
    return Status::IOError("shard snapshot " + path +
                           " has malformed session state sections");
  }
  return checkpoint;
}

Status WriteManifest(const std::string& dir,
                     const CheckpointManifest& manifest) {
  std::string payload;
  AppendU64(&payload, manifest.applied_batches);
  AppendI32(&payload, manifest.num_shards);
  AppendI32(&payload, manifest.num_sources);
  AppendI32(&payload, manifest.num_objects);
  AppendI32(&payload, manifest.num_values);
  return WriteSnapshotFile(dir + "/" + kManifestName, payload);
}

Result<CheckpointManifest> ReadManifest(const std::string& dir) {
  SLIMFAST_ASSIGN_OR_RETURN(std::string payload,
                            ReadSnapshotFile(dir + "/" + kManifestName));
  ByteReader in(payload);
  CheckpointManifest manifest;
  if (!in.ReadU64(&manifest.applied_batches) ||
      !in.ReadI32(&manifest.num_shards) ||
      !in.ReadI32(&manifest.num_sources) ||
      !in.ReadI32(&manifest.num_objects) ||
      !in.ReadI32(&manifest.num_values) || in.remaining() != 0) {
    return Status::IOError("checkpoint manifest in " + dir +
                           " is malformed");
  }
  return manifest;
}

Status RemoveStaleShardSnapshots(const std::string& dir, uint64_t keep) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list checkpoint dir " + dir + ": " +
                           ec.message());
  }
  char keep_tag[32];
  std::snprintf(keep_tag, sizeof(keep_tag), "-%020llu.snap",
                static_cast<unsigned long long>(keep));
  const std::string keep_suffix = keep_tag;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const bool is_snapshot =
        name.size() > 5 && name.compare(name.size() - 5, 5, ".snap") == 0;
    const bool is_leftover_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (!is_snapshot && !is_leftover_tmp) continue;
    if (is_snapshot && name.size() > keep_suffix.size() &&
        name.compare(name.size() - keep_suffix.size(), keep_suffix.size(),
                     keep_suffix) == 0) {
      continue;  // part of the checkpoint just committed
    }
    std::filesystem::remove(entry.path(), ec);
    if (ec) {
      return Status::IOError("cannot remove stale snapshot " +
                             entry.path().string() + ": " + ec.message());
    }
  }
  return Status::OK();
}

}  // namespace slimfast
