#include "serve/single_flight.h"

#include <cstring>

namespace kgov::serve {

SingleFlightGroup::JoinOutcome SingleFlightGroup::JoinOrLead(
    const std::string& key) {
  JoinOutcome outcome;
  MutexLock lock(mu_);
  auto [it, inserted] = flights_.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<Flight>();
    outcome.token.reset(new LeaderToken(this, key, it->second));
    return outcome;
  }
  outcome.flight = it->second;
  return outcome;
}

SingleFlightGroup::WaitResult SingleFlightGroup::Wait(
    const std::shared_ptr<Flight>& flight, std::chrono::nanoseconds deadline) {
  WaitResult result;
  MutexLock lock(flight->mu);
  result.published = lock.WaitFor(
      flight->cv, deadline,
      [&flight]() KGOV_REQUIRES(flight->mu) { return flight->done; });
  if (result.published) {
    result.status = flight->status;
    result.answers = flight->answers;
  }
  return result;
}

size_t SingleFlightGroup::InFlight() const {
  MutexLock lock(mu_);
  return flights_.size();
}

void SingleFlightGroup::Resolve(const std::string& key,
                                const std::shared_ptr<Flight>& flight,
                                Status status,
                                const std::vector<ppr::ScoredAnswer>& answers) {
  {
    MutexLock lock(mu_);
    // Erase before waking followers: a miss that arrives after the wake
    // must start a fresh flight (its cache probe may already hit, since
    // leaders publish to the cache before resolving).
    auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  {
    MutexLock lock(flight->mu);
    flight->done = true;
    flight->status = std::move(status);
    flight->answers = answers;
  }
  flight->cv.NotifyAll();
}

std::string EncodeFlightKey(const std::string& cache_key, uint64_t epoch) {
  std::string key;
  key.reserve(cache_key.size() + sizeof(epoch));
  key.append(cache_key);
  char bytes[sizeof(epoch)];
  std::memcpy(bytes, &epoch, sizeof(epoch));
  key.append(bytes, sizeof(epoch));
  return key;
}

}  // namespace kgov::serve
