// Base message type for inter-process communication.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace mvc {

/// Base class of every message exchanged between processes. Concrete
/// messages live in net/protocol.h; components downcast via the `kind`
/// tag (cheaper and more explicit than RTTI in the hot dispatch path).
struct Message {
  enum class Kind : uint8_t {
    kSourceTxn = 0,      // source -> integrator
    kUpdate = 1,         // integrator -> view manager
    kRelSet = 2,         // integrator -> merge
    kActionList = 3,     // view manager -> merge
    kWarehouseTxn = 4,   // merge -> warehouse
    kTxnCommitted = 5,   // warehouse -> merge
    kQueryRequest = 6,   // view manager -> source
    kQueryResponse = 7,  // source -> view manager
    kTick = 8,           // self-scheduled timer
    kInjectTxn = 9,      // workload driver -> source
    kReadViews = 10,     // reader -> warehouse
    kViewsSnapshot = 11, // warehouse -> reader
    // --- Fault injection & crash recovery (src/fault/) ---
    kCrash = 12,               // fault injector -> any process
    kRecover = 13,             // fault injector -> any process
    kReplayRequest = 14,       // recovering view manager -> integrator
    kReplayResponse = 15,      // integrator -> view manager
    kRelResyncRequest = 16,    // recovering merge -> integrator
    kRelResyncResponse = 17,   // integrator -> merge
    kAlResyncRequest = 18,     // recovering merge -> view manager
    kAlResyncResponse = 19,    // view manager -> merge
    kCommitResyncRequest = 20, // recovering merge -> warehouse
    kCommitResyncResponse = 21, // warehouse -> merge
    // --- Background compaction (src/compact/) ---
    kCompactionStats = 22,    // warehouse -> compactor
    kCompactionRequest = 23,  // compactor -> warehouse
    kCompactionResponse = 24, // warehouse -> compactor
    // --- Snapshot-serving read tier (src/query/scan.h) ---
    kQueryView = 25,          // reader -> warehouse
    kQueryResult = 26         // warehouse -> reader
  };
  /// Number of kinds: the last enumerator plus one.
  static constexpr size_t kNumKinds =
      static_cast<size_t>(Kind::kQueryResult) + 1;

  explicit Message(Kind k) : kind(k) {}
  virtual ~Message() = default;

  Kind kind;

  /// Short description for traces.
  virtual std::string Summary() const { return "Message"; }
};

using MessagePtr = std::unique_ptr<Message>;

const char* MessageKindToString(Message::Kind kind);

}  // namespace mvc
