// Cross-traffic generators: the "Internet stream" of the paper's Fig.-3
// model.  The paper infers that the stream is a mix of bulk transfers with
// large packets (FTP) and interactive traffic with small packets (Telnet);
// BurstSource and PoissonSource model those two components.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/network.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::sim {

/// Base for all generators: owns identity, id assignment and start.
class TrafficSource {
 public:
  TrafficSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                std::uint32_t flow, PacketKind kind, Rng rng);
  virtual ~TrafficSource() = default;

  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;

  /// Begins emitting at absolute time `at` (>= now); emission runs for
  /// the rest of the simulation.
  void start(SimTime at);

  std::uint64_t packets_sent() const { return sent_; }
  std::int64_t bytes_sent() const { return bytes_; }

 protected:
  /// Emits one packet of `size` now.
  void emit(ByteSize size);
  /// Schedules the next generator step; derived classes call this from
  /// step() to continue the emission process.
  void schedule_step(Duration delay);
  /// One generator step: emit packet(s) and reschedule.
  virtual void step() = 0;

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }

 private:
  Simulator& sim_;
  Network& net_;
  NodeId src_, dst_;
  std::uint32_t flow_;
  PacketKind kind_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  std::int64_t bytes_ = 0;
};

/// Poisson arrivals of fixed-size packets; models interactive (Telnet)
/// traffic when configured with small packets.
class PoissonSource final : public TrafficSource {
 public:
  PoissonSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                std::uint32_t flow, PacketKind kind, Rng rng,
                Duration mean_interarrival, ByteSize packet);

 private:
  void step() override;

  Duration mean_interarrival_;
  ByteSize packet_;
};

/// Bulk-transfer model (FTP-like): bursts arrive as a Poisson process;
/// each burst is a geometric number of large packets clocked out at the
/// sender's access rate.  Seen from the bottleneck, a burst is the "large
/// Internet workload B" of the paper's eq. (2).
struct BurstConfig {
  Duration mean_burst_gap = Duration::seconds(1);  // between burst starts
  double mean_burst_packets = 4.0;                 // geometric mean, >= 1
  ByteSize packet = kFtpWireBytes;
  Duration in_burst_spacing;  // back-to-back if zero
};

class BurstSource final : public TrafficSource {
 public:
  BurstSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
              std::uint32_t flow, PacketKind kind, Rng rng,
              BurstConfig config);

 private:
  void step() override;

  BurstConfig config_;
  std::uint64_t remaining_in_burst_ = 0;
};

/// An FTP transfer as the bottleneck saw it in 1992: while a session is
/// active, TCP's ack clock paces one data packet out per bottleneck
/// service time (pace_load ~ 1 fills the pipe), and sessions alternate
/// with idle periods.  This produces the per-interval cross workloads of
/// 0 / 1 / 2 packets behind the paper's Fig.-8 peaks, unlike an open-loop
/// batch source which dumps whole windows at once.
struct FtpSessionConfig {
  Duration mean_session = Duration::seconds(8);  // ON period (exponential)
  Duration mean_idle = Duration::seconds(12);    // OFF period (exponential)
  double pace_load = 0.95;  // share of mu the session sustains
  Bandwidth bottleneck = Bandwidth::kbps(128);  // mu pacing is computed from
  ByteSize packet = kFtpWireBytes;
};

class FtpSessionSource final : public TrafficSource {
 public:
  FtpSessionSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                   std::uint32_t flow, PacketKind kind, Rng rng,
                   FtpSessionConfig config);

 private:
  void step() override;

  FtpSessionConfig config_;
  Duration pace_interval_;
  bool in_session_ = false;
  SimTime session_until_;
};

/// Poisson arrivals whose rate is modulated sinusoidally — the "base
/// congestion level which changes slowly with time" behind the diurnal
/// cycle Mukherjee found spectrally (section 1).  Emission uses thinning
/// against the peak rate, so the process is an exact inhomogeneous
/// Poisson process.
struct ModulatedPoissonConfig {
  Duration mean_interarrival = Duration::millis(20);  // at the *average* rate
  double relative_amplitude = 0.5;                    // in [0, 1)
  Duration period = Duration::minutes(5);
  ByteSize packet = kTelnetWireBytes;
};

class ModulatedPoissonSource final : public TrafficSource {
 public:
  ModulatedPoissonSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
                         std::uint32_t flow, PacketKind kind, Rng rng,
                         ModulatedPoissonConfig config);

 private:
  void step() override;

  ModulatedPoissonConfig config_;
};

/// Exponential ON/OFF source: CBR while ON.  Used by the ablation benches
/// to stress the bottleneck with a different burstiness structure.
struct OnOffConfig {
  Duration mean_on = Duration::millis(500);
  Duration mean_off = Duration::millis(500);
  Duration on_interval = Duration::millis(10);  // packet spacing while ON
  ByteSize packet = kFtpWireBytes;
  /// When > 0, ON/OFF period lengths are Pareto with this shape (scale
  /// chosen to keep the configured means for shape > 1).  Shapes in
  /// (1, 2) have infinite variance — the Willinger construction whose
  /// superposition is self-similar, unlike the default exponential
  /// periods.
  double pareto_shape = 0.0;
};

class OnOffSource final : public TrafficSource {
 public:
  OnOffSource(Simulator& sim, Network& net, NodeId src, NodeId dst,
              std::uint32_t flow, PacketKind kind, Rng rng, OnOffConfig config);

 private:
  void step() override;

  OnOffConfig config_;
  bool on_ = false;
  SimTime on_until_;
};

}  // namespace bolot::sim
