//===-- support/Output.cpp - Side-channel output sinks --------------------==//

#include "support/Output.h"

#include <vector>

using namespace vg;

OutputSink::~OutputSink() {
  if (File)
    std::fclose(File);
}

bool OutputSink::openFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  if (File)
    std::fclose(File);
  File = F;
  TheMode = Mode::File;
  return true;
}

void OutputSink::useBuffer() {
  TheMode = Mode::Buffer;
  Buf.clear();
}

void OutputSink::printf(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  vprintf(Fmt, Ap);
  va_end(Ap);
}

void OutputSink::vprintf(const char *Fmt, va_list Ap) {
  va_list Ap2;
  va_copy(Ap2, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap2);
  va_end(Ap2);
  if (N <= 0)
    return;
  std::vector<char> Tmp(static_cast<size_t>(N) + 1);
  std::vsnprintf(Tmp.data(), Tmp.size(), Fmt, Ap);
  write(std::string(Tmp.data(), static_cast<size_t>(N)));
}

void OutputSink::write(const std::string &S) {
  switch (TheMode) {
  case Mode::Stderr:
    std::fwrite(S.data(), 1, S.size(), stderr);
    break;
  case Mode::File:
    std::fwrite(S.data(), 1, S.size(), File);
    break;
  case Mode::Buffer:
    Buf += S;
    break;
  }
}

std::string OutputSink::takeBuffer() {
  std::string Out;
  Out.swap(Buf);
  return Out;
}
