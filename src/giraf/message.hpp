// The message universe shared by all protocols in this library.
//
// GIRAF (Algorithm 1) is agnostic to message contents; rather than
// templating the engine per protocol we use one tagged superset struct.
// Algorithm 2's format is <msgType, est, ts, leader, majApproved>
// (line 8); the other protocols add a few fields, the Appendix B
// simulation adds a relay payload, and Paxos adds ballot fields.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace timing {

enum class MsgType : std::uint8_t {
  kPrepare,
  kCommit,
  kDecide,
  // Paxos (baseline protocol):
  kPaxosPrepare,   ///< phase 1a, leader -> all
  kPaxosPromise,   ///< phase 1b, acceptor -> leader
  kPaxosNack,      ///< rejection carrying the acceptor's promised ballot
  kPaxosAccept,    ///< phase 2a, leader -> all
  kPaxosAccepted,  ///< phase 2b, acceptor -> leader
  kPaxosIdle,      ///< keep-alive when an acceptor has nothing to report
  // Appendix B simulation (Algorithm 3):
  kRelay,          ///< odd-round forwarding of the previous round's messages
};

const char* to_string(MsgType t) noexcept;

struct Message {
  MsgType type = MsgType::kPrepare;
  Value est = kNoValue;
  Timestamp ts = 0;
  ProcessId leader = kNoProcess;
  bool maj_approved = false;  ///< Algorithm 2's majApproved field
  bool heard_maj = false;     ///< LM3's "I heard a majority last round"

  // Paxos fields.
  Timestamp ballot = 0;
  Timestamp accepted_ballot = 0;
  Value accepted_value = kNoValue;

  // Omega election piggyback (oracles/omega_election.hpp): monotone
  // punishment counters, one per process, merged pointwise-max. Empty for
  // protocols that run with an external oracle.
  std::vector<Timestamp> punish;

  // Relay payload (Algorithm 3): the round-(k-1) messages the sender
  // received, tagged with their original senders. vector<Message> with an
  // incomplete element type is allowed since C++17.
  std::vector<ProcessId> relay_from;
  std::vector<Message> relay_msgs;

  bool operator==(const Message&) const = default;
};

/// The row M_i[k][*]: what each sender's round-k message is, by
/// reference. Index j points at p_j's round-k message, or is null when
/// nothing arrived from p_j this round; slot i (self) always points at
/// the process's own message, per Algorithm 1's semantics ("there is no
/// need for a process to explicitly send messages to itself").
///
/// The row and the messages it points to are valid only during the
/// compute() call that receives them: the caller reuses both for the
/// next round. A protocol that keeps a message past compute() copies it.
using RoundMsgs = std::span<const Message* const>;

}  // namespace timing
