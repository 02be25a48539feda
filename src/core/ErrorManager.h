//===-- core/ErrorManager.h - Error recording and suppression ---*- C++ -*-==//
///
/// \file
/// The core's error-recording services (Section 4, R9): tools report
/// errors here; the manager deduplicates them (by kind + program counter),
/// applies suppressions ("the ability to suppress uninteresting/unfixable
/// errors via suppressions listed in files"), attaches stack traces, and
/// renders the familiar end-of-run report.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_ERRORMANAGER_H
#define VG_CORE_ERRORMANAGER_H

#include "support/Output.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vg {

/// One deduplicated error site.
struct ErrorRecord {
  std::string Kind;    ///< e.g. "UninitValue", "InvalidRead"
  std::string Message; ///< first occurrence's rendered message
  uint32_t PC = 0;
  std::vector<uint32_t> Stack; ///< return addresses, innermost first
  uint64_t Count = 0;
  bool Suppressed = false;
};

/// A suppression: matches errors by kind and (optionally) a PC range.
/// The textual form is "Kind" or "Kind:0xLO-0xHI", one per line; '#'
/// comments and blank lines are ignored.
struct Suppression {
  std::string Kind;
  uint32_t Lo = 0, Hi = 0xFFFFFFFF;
};

class ErrorManager {
public:
  /// Records one error occurrence. Returns true if this is a new
  /// (unsuppressed, previously unseen) error site — tools use this to
  /// decide whether to print the full message.
  bool record(const std::string &Kind, const std::string &Message,
              uint32_t PC, std::vector<uint32_t> Stack = {});

  void addSuppression(const Suppression &S) { Sups.push_back(S); }
  /// Parses suppression text (see Suppression); returns entries added.
  unsigned parseSuppressions(const std::string &Text);

  const std::vector<ErrorRecord> &records() const { return Records; }
  uint64_t uniqueErrors() const;
  uint64_t totalOccurrences() const;
  uint64_t suppressedCount() const { return NumSuppressed; }

  /// Prints the ERROR SUMMARY block.
  void printSummary(OutputSink &Out) const;

private:
  bool matchesSuppression(const std::string &Kind, uint32_t PC) const;

  std::vector<ErrorRecord> Records;
  std::vector<Suppression> Sups;
  uint64_t NumSuppressed = 0;
};

} // namespace vg

#endif // VG_CORE_ERRORMANAGER_H
