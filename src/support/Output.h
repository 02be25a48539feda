//===-- support/Output.h - Side-channel output sinks ------------*- C++ -*-==//
///
/// \file
/// Implements requirement R9 (extra output): tools must emit their results on
/// a side channel that does not perturb the client. An OutputSink can target
/// stderr (the default, as in Valgrind), a file, or an in-memory buffer (used
/// pervasively by the test suite to assert on tool output).
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_OUTPUT_H
#define VG_SUPPORT_OUTPUT_H

#include <cstdarg>
#include <cstdio>
#include <string>

namespace vg {

/// Destination for tool messages (error reports, profiles, statistics).
/// Exactly one of the three modes is active. The client program's own
/// stdout/stderr flow through the simulated kernel's file table and never
/// touch this sink, so tool output cannot interleave with client output
/// destructively (R9).
class OutputSink {
public:
  enum class Mode { Stderr, File, Buffer };

  OutputSink() : TheMode(Mode::Stderr) {}
  ~OutputSink();

  OutputSink(const OutputSink &) = delete;
  OutputSink &operator=(const OutputSink &) = delete;

  /// Redirects output to \p Path. Returns false if the file cannot be opened
  /// (the sink then stays in its previous mode).
  bool openFile(const std::string &Path);

  /// Redirects output to an internal buffer, retrievable via takeBuffer().
  void useBuffer();

  /// printf-style formatted output.
  void printf(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Writes a raw string. All output funnels through here.
  void write(const std::string &S);

  /// Returns and clears the accumulated buffer (Buffer mode only).
  std::string takeBuffer();

  /// Returns the buffer contents without clearing (Buffer mode only).
  const std::string &buffer() const { return Buf; }

  Mode mode() const { return TheMode; }

private:
  void vprintf(const char *Fmt, va_list Ap);

  Mode TheMode;
  std::FILE *File = nullptr;
  std::string Buf;
};

} // namespace vg

#endif // VG_SUPPORT_OUTPUT_H
