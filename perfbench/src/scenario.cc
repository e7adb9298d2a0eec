#include "scenario.h"

#include <unordered_map>
#include <unordered_set>
#include <variant>

namespace perfbench {

namespace {

// "site<s>.org" or "www.site<s>.org" -> s; -1 for any other host.
long benign_site(const std::string& host) {
  std::string_view h = host;
  if (h.rfind("www.", 0) == 0) h.remove_prefix(4);
  if (h.rfind("site", 0) != 0 || h.size() < 9 || h.substr(h.size() - 4) != ".org") {
    return -1;
  }
  const auto digits = h.substr(4, h.size() - 8);
  long s = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    s = s * 10 + (c - '0');
  }
  return s;
}

// "/page<K>.html" -> "/t<s>/pg<K>s<s>.html".
void rewrite_path(std::string& path, long site) {
  if (path.rfind("/page", 0) != 0 || path.size() < 11) return;
  const auto k = path.substr(5, path.size() - 10);
  const auto s = std::to_string(site);
  path = "/t" + s + "/pg" + k + "s" + s + ".html";
}

}  // namespace

smash::synth::StreamScenario make_stream_scenario(std::uint64_t seed,
                                                  std::uint32_t days, bool smoke) {
  smash::synth::StreamScenarioConfig config;
  config.seed = seed;
  config.duration_s = static_cast<std::uint64_t>(days) * 86400;
  config.benign_servers = smoke ? 150 : 1200;
  config.benign_clients = smoke ? 120 : 800;
  config.benign_visits = (smoke ? 2500 : 40000) * days;
  config.popular_servers = smoke ? 2 : 6;
  config.popular_clients = 250;
  config.campaigns = smoke ? 2 : 6;
  config.campaign_servers = 6;
  config.campaign_bots = 5;
  config.poll_interval_s = 300;
  config.active_fraction = 0.35;
  auto scenario = smash::synth::generate_stream(config);
  for (auto& event : scenario.events) {
    if (auto* request = std::get_if<smash::stream::RequestEvent>(&event)) {
      const long site = benign_site(request->host);
      if (site >= 0) rewrite_path(request->path, site);
    }
  }
  return scenario;
}

LookupMix make_lookup_mix(const smash::synth::StreamScenario& scenario) {
  std::unordered_set<std::string> campaign_hosts;
  for (const auto& c : scenario.campaigns) campaign_hosts.insert(c.servers.begin(), c.servers.end());
  std::unordered_map<std::string, std::string> resolved;  // host -> IP
  for (const auto& event : scenario.events) {
    if (const auto* r = std::get_if<smash::stream::ResolutionEvent>(&event)) {
      resolved.emplace(r->host, r->ip);
    }
  }

  LookupMix mix;
  std::unordered_map<std::string, std::uint32_t> key_index;  // by host
  const auto key_of = [&](const std::string& host) {
    const auto [it, fresh] = key_index.emplace(host, static_cast<std::uint32_t>(mix.keys.size()));
    if (fresh) {
      const auto ip = resolved.find(host);
      mix.keys.push_back({host, ip == resolved.end() ? "" : ip->second,
                          campaign_hosts.count(host) ? LookupKey::Kind::kCampaign
                                                     : LookupKey::Kind::kBenign});
    }
    return it->second;
  };
  // Events are in time order, so a client's open frame closes with its minute.
  std::unordered_map<std::string, std::size_t> open_frame;  // client -> frame
  std::uint64_t minute = 0;
  for (const auto& event : scenario.events) {
    const auto* r = std::get_if<smash::stream::RequestEvent>(&event);
    if (r == nullptr) continue;
    if (r->time_s / 60 != minute) {
      minute = r->time_s / 60;
      open_frame.clear();
    }
    auto [it, fresh] = open_frame.emplace(r->client, mix.frames.size());
    if (!fresh && mix.frames[it->second].size() == LookupMix::kMaxFrameLookups) {
      it->second = mix.frames.size();
      fresh = true;
    }
    if (fresh) mix.frames.emplace_back();
    mix.frames[it->second].push_back(key_of(r->host));
  }
  mix.scenario_frames = mix.frames.size();

  for (int u = 0; u < 200; ++u) {
    mix.frames.push_back({static_cast<std::uint32_t>(mix.keys.size())});
    mix.keys.push_back({"unseen" + std::to_string(u) + ".net", "192.0.2." + std::to_string(u),
                        LookupKey::Kind::kUnseen});
  }
  return mix;
}

}  // namespace perfbench
