/*===-- scripts/alloc_log_shim.c - Heap-call size log (LD_PRELOAD) ------===//
 *
 * Appends one line per heap call to the file named by $ALLOC_LOG:
 *
 *   m SIZE   malloc          c SIZE   calloc (count * size)
 *   r SIZE   realloc (new)   a SIZE   memalign family
 *   f SIZE   free (malloc_usable_size of the block, 0 for NULL)
 *   S        the process opened /proc/self/status (perfbench's peak-RSS
 *            read), so a diff can say where it stands relative to it
 *
 * Only sizes are logged, never addresses, so two runs of a deterministic
 * program log the same lines exactly when they make the same heap calls.
 * The calls go straight to glibc's __libc_* entry points (no dlsym, which
 * itself allocates). Single-threaded use only. scripts/alloc_log.sh builds
 * and drives it.
 *
 *===--------------------------------------------------------------------===*/
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

static int LogFd = -1;
static char Buf[1 << 16];
static size_t Len;

static void flushLog(void) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = write(LogFd, Buf + Off, Len - Off);
    if (N <= 0)
      break;
    Off += (size_t)N;
  }
  Len = 0;
}

static void append(const char *S, size_t N) {
  if (LogFd < 0)
    return;
  if (Len + N > sizeof Buf)
    flushLog();
  memcpy(Buf + Len, S, N);
  Len += N;
}

/* "K SIZE\n", formatted by hand: snprintf may allocate. */
static void logEvent(char Kind, size_t Size) {
  char Line[32];
  char Digits[24];
  int ND = 0;
  do {
    Digits[ND++] = (char)('0' + Size % 10);
    Size /= 10;
  } while (Size);
  size_t N = 0;
  Line[N++] = Kind;
  Line[N++] = ' ';
  while (ND)
    Line[N++] = Digits[--ND];
  Line[N++] = '\n';
  append(Line, N);
}

__attribute__((constructor)) static void openLog(void) {
  const char *Path = getenv("ALLOC_LOG");
  if (Path)
    LogFd = open(Path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

__attribute__((destructor)) static void closeLog(void) {
  if (LogFd < 0)
    return;
  flushLog();
  close(LogFd);
  LogFd = -1;
}

void *malloc(size_t Size) {
  logEvent('m', Size);
  return __libc_malloc(Size);
}

void *calloc(size_t Count, size_t Size) {
  logEvent('c', Count * Size);
  return __libc_calloc(Count, Size);
}

void *realloc(void *Ptr, size_t Size) {
  logEvent('r', Size);
  return __libc_realloc(Ptr, Size);
}

void free(void *Ptr) {
  logEvent('f', Ptr ? malloc_usable_size(Ptr) : 0);
  __libc_free(Ptr);
}

void *memalign(size_t Align, size_t Size) {
  logEvent('a', Size);
  return __libc_memalign(Align, Size);
}

void *aligned_alloc(size_t Align, size_t Size) {
  logEvent('a', Size);
  return __libc_memalign(Align, Size);
}

int posix_memalign(void **Out, size_t Align, size_t Size) {
  logEvent('a', Size);
  void *P = __libc_memalign(Align, Size);
  if (!P)
    return ENOMEM;
  *Out = P;
  return 0;
}

static void noteOpen(const char *Path) {
  if (Path && strcmp(Path, "/proc/self/status") == 0)
    append("S\n", 2);
}

FILE *fopen(const char *Path, const char *Mode) {
  static FILE *(*Real)(const char *, const char *);
  if (!Real)
    Real = (FILE * (*)(const char *, const char *)) dlsym(RTLD_NEXT, "fopen");
  noteOpen(Path);
  return Real(Path, Mode);
}

FILE *fopen64(const char *Path, const char *Mode) {
  static FILE *(*Real)(const char *, const char *);
  if (!Real)
    Real =
        (FILE * (*)(const char *, const char *)) dlsym(RTLD_NEXT, "fopen64");
  noteOpen(Path);
  return Real(Path, Mode);
}
