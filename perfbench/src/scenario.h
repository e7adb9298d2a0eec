// Inputs of the stream_week and serve_mixed workloads, made from the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth/stream_gen.h"

namespace perfbench {

// The stream scenario of the perf_stream population (1,200 benign
// servers, 800 clients, 40k visits a day, 6 campaigns) over `days` days,
// with each benign `/pageK.html` rewritten into a per-site name
// `/t<s>/pg<K>s<s>.html`, the shape synth/world.cc uses. Without the
// rewrite every benign server shares six paths and the uri-file graph is
// one near-clique.
smash::synth::StreamScenario make_stream_scenario(std::uint64_t seed,
                                                  std::uint32_t days, bool smoke);

// A lookup key of the serve_mixed mix. Benign and never-seen keys must never
// come back malicious; campaign keys must match the published snapshot.
struct LookupKey {
  std::string host;
  std::string ip;  // empty: host-only lookup
  enum class Kind : std::uint8_t { kCampaign, kBenign, kUnseen } kind = Kind::kBenign;
};

// The serve_mixed traffic, taken from the scenario. Each request event is a
// lookup of its host, with the IP the scenario resolves that host to, or
// host-only when the scenario never resolves it (the www. names of benign
// sites). The requests of one client within one scenario minute form one
// frame: a gateway in front of that client sends them as one kBatch, or as
// a kLookup when there is one, of at most kMaxFrameLookups lookups.
// Campaign, benign and host+IP shares thus follow the generator. Never-seen
// hosts, each with a TEST-NET-1 address, are added on top (the generator
// has none).
struct LookupMix {
  static constexpr std::size_t kMaxFrameLookups = 32;
  std::vector<LookupKey> keys;  // distinct keys
  // Key indices per frame: the scenario's frames, then one single-lookup
  // frame per never-seen host.
  std::vector<std::vector<std::uint32_t>> frames;
  std::size_t scenario_frames = 0;
};

LookupMix make_lookup_mix(const smash::synth::StreamScenario& scenario);

}  // namespace perfbench
