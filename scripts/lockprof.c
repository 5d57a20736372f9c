// lockprof: an LD_PRELOAD contention profiler for pthread mutexes and
// rwlocks, for hosts without perf, gdb or valgrind.
//
// Each interposed lock call first tries the lock. Only when the try fails
// does it time the blocking acquisition that follows, and it charges the
// wait to the call site: the caller's return address and the caller's
// caller's. Uncontended acquisitions cost one trylock and are not
// recorded, so the profile shows who waits, not who locks.
//
// At exit the table is written to $LOCKPROF_OUT (default: stderr), one
// line per site, heaviest first:
//   <wait_ns> <waits> <module> <offset> <module> <offset>
// Offsets are module-relative (PIE executables and shared objects) and
// already point into the call instruction, ready for addr2line.
// scripts/lockprof.sh builds this file, runs a command under it and
// resolves the sites.
//
// glibc only: the real lock functions are reached through their exported
// __pthread_* aliases, so no dlsym bootstrap can recurse into the shim.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

extern int __pthread_mutex_lock(pthread_mutex_t* m);
extern int __pthread_mutex_trylock(pthread_mutex_t* m);
extern int __pthread_rwlock_rdlock(pthread_rwlock_t* l);
extern int __pthread_rwlock_wrlock(pthread_rwlock_t* l);
extern int __pthread_rwlock_tryrdlock(pthread_rwlock_t* l);
extern int __pthread_rwlock_trywrlock(pthread_rwlock_t* l);

#define kSlots 8192  // power of two

enum { kEmpty = 0, kClaiming = 1, kReady = 2 };

struct Site {
  _Atomic int state;
  void* caller;
  void* parent;
  _Atomic uint64_t wait_ns;
  _Atomic uint64_t waits;
};

static struct Site sites[kSlots];
static _Atomic uint64_t dropped;       // waits that found the table full
static __thread int in_profiler;       // the unwinder may lock, too

static uint64_t NowNs(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
}

static void Record(void* caller, void* parent, uint64_t ns) {
  uintptr_t h = ((uintptr_t)caller * 0x9E3779B97F4A7C15ull) ^
                ((uintptr_t)parent * 0xC2B2AE3D27D4EB4Full);
  for (unsigned probe = 0; probe < kSlots; ++probe) {
    struct Site* s = &sites[(h + probe) & (kSlots - 1)];
    int state = atomic_load(&s->state);
    if (state == kEmpty) {
      int expected = kEmpty;
      if (atomic_compare_exchange_strong(&s->state, &expected, kClaiming)) {
        s->caller = caller;
        s->parent = parent;
        atomic_store(&s->state, kReady);
        state = kReady;
      } else {
        state = expected;
      }
    }
    while (state == kClaiming) state = atomic_load(&s->state);
    if (s->caller == caller && s->parent == parent) {
      atomic_fetch_add(&s->wait_ns, ns);
      atomic_fetch_add(&s->waits, 1);
      return;
    }
  }
  atomic_fetch_add(&dropped, 1);
}

// Frames: [0] this function, [1] the interposed lock function, [2] its
// caller, [3] the caller's caller.
__attribute__((noinline)) static void Charge(uint64_t start_ns) {
  const uint64_t ns = NowNs() - start_ns;
  void* frames[4] = {0, 0, 0, 0};
  const int n = backtrace(frames, 4);
  Record(n > 2 ? frames[2] : 0, n > 3 ? frames[3] : 0, ns);
}

int pthread_mutex_lock(pthread_mutex_t* m) {
  if (in_profiler || __pthread_mutex_trylock(m) == 0) {
    return in_profiler ? __pthread_mutex_lock(m) : 0;
  }
  in_profiler = 1;
  const uint64_t start = NowNs();
  const int rc = __pthread_mutex_lock(m);
  Charge(start);
  in_profiler = 0;
  return rc;
}

int pthread_rwlock_rdlock(pthread_rwlock_t* l) {
  if (in_profiler || __pthread_rwlock_tryrdlock(l) == 0) {
    return in_profiler ? __pthread_rwlock_rdlock(l) : 0;
  }
  in_profiler = 1;
  const uint64_t start = NowNs();
  const int rc = __pthread_rwlock_rdlock(l);
  Charge(start);
  in_profiler = 0;
  return rc;
}

int pthread_rwlock_wrlock(pthread_rwlock_t* l) {
  if (in_profiler || __pthread_rwlock_trywrlock(l) == 0) {
    return in_profiler ? __pthread_rwlock_wrlock(l) : 0;
  }
  in_profiler = 1;
  const uint64_t start = NowNs();
  const int rc = __pthread_rwlock_wrlock(l);
  Charge(start);
  in_profiler = 0;
  return rc;
}

__attribute__((constructor)) static void Init(void) {
  // The first backtrace() loads the unwinder; do it before any thread
  // needs it inside a lock wait.
  void* frame;
  in_profiler = 1;
  backtrace(&frame, 1);
  in_profiler = 0;
}

static void PrintFrame(FILE* out, void* addr) {
  Dl_info info;
  if (addr != 0 && dladdr(addr, &info) != 0 && info.dli_fname != 0) {
    // A return address points past the call: step back into it.
    fprintf(out, " %s 0x%lx", info.dli_fname[0] ? info.dli_fname : "?",
            (unsigned long)((uintptr_t)addr - 1 - (uintptr_t)info.dli_fbase));
  } else {
    fprintf(out, " ? 0x0");
  }
}

static int ByWaitDesc(const void* a, const void* b) {
  const uint64_t x = atomic_load(&(*(struct Site* const*)a)->wait_ns);
  const uint64_t y = atomic_load(&(*(struct Site* const*)b)->wait_ns);
  return x < y ? 1 : (x > y ? -1 : 0);
}

__attribute__((destructor)) static void Dump(void) {
  in_profiler = 1;
  static struct Site* order[kSlots];
  int n = 0;
  for (int i = 0; i < kSlots; ++i) {
    if (atomic_load(&sites[i].state) == kReady) order[n++] = &sites[i];
  }
  qsort(order, n, sizeof(order[0]), ByWaitDesc);
  const char* path = getenv("LOCKPROF_OUT");
  FILE* out = path != 0 ? fopen(path, "w") : stderr;
  if (out == 0) return;
  for (int i = 0; i < n; ++i) {
    fprintf(out, "%llu %llu",
            (unsigned long long)atomic_load(&order[i]->wait_ns),
            (unsigned long long)atomic_load(&order[i]->waits));
    PrintFrame(out, order[i]->caller);
    PrintFrame(out, order[i]->parent);
    fputc('\n', out);
  }
  if (atomic_load(&dropped) != 0) {
    fprintf(out, "# %llu waits dropped: site table full\n",
            (unsigned long long)atomic_load(&dropped));
  }
  if (out != stderr) fclose(out);
}
