// cpuprof: an LD_PRELOAD CPU sampling profiler, for hosts without perf,
// gdb or valgrind.
//
// Every thread gets a POSIX timer on its own CPU clock
// (CLOCK_THREAD_CPUTIME_ID) that sends it SIGPROF once per period of CPU
// it burns; threads that sleep or block are not sampled. A signal that
// stands for several expired periods (the kernel checks CPU timers at its
// tick) counts as that many samples. The handler unwinds the interrupted
// stack with backtrace() and charges the sample:
//   - "self" to the interrupted instruction,
//   - "inclusive" to it and to every distinct return address above it,
//   - and to the sampled thread's name (pthread_setname_np).
// The main thread's timer starts in the constructor; other threads get
// theirs from an interposed pthread_create, and lose it at thread exit.
//
// Environment:
//   CPUPROF_OUT       where the table goes at exit (default: stderr)
//   CPUPROF_PERIOD_US thread-CPU microseconds between samples (1000)
//   CPUPROF_DELAY_MS  samples in the first DELAY ms of wall time are
//                     dropped, so a long set-up does not dilute the run
//
// Output, heaviest first:
//   # samples <kept> dropped_early <n> period_us <p>
//   S <self> <inclusive> <module> <offset>
//   T <samples> <thread name>
// Offsets are module-relative (PIE executables and shared objects); a
// caller's offset already points into its call instruction, ready for
// addr2line. scripts/cpuprof.sh builds this file, runs a command under it
// and resolves the sites.
//
// Limits: backtrace() is not formally async-signal-safe; its unwinder is
// loaded in the constructor so the handler never runs the loader. Slow
// system calls (poll, futex waits) in the profiled program can see EINTR
// when a sample lands on their way in. Linux + glibc only.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define kSlots 65536  // distinct code addresses; power of two
#define kNames 256    // distinct thread names; power of two
#define kDepth 64

enum { kEmpty = 0, kClaiming = 1, kReady = 2 };

struct Site {
  _Atomic int state;
  void* pc;
  _Atomic uint64_t self;
  _Atomic uint64_t inclusive;
};

struct Name {
  _Atomic int state;
  char name[16];
  _Atomic uint64_t samples;
};

static struct Site sites[kSlots];
static struct Name names[kNames];
static _Atomic uint64_t samples_kept;
static _Atomic uint64_t samples_early;
static _Atomic uint64_t sites_dropped;  // the site table was full
static uint64_t start_ns;  // CLOCK_MONOTONIC; earlier samples are dropped
static long period_ns = 1000000;
static pthread_key_t timer_key;
static int (*real_pthread_create)(pthread_t*, const pthread_attr_t*,
                                  void* (*)(void*), void*);
// initial-exec: no lazy TLS allocation inside the signal handler.
static __thread int in_handler __attribute__((tls_model("initial-exec")));

static uint64_t NowNs(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
}

static uint64_t Hash(const void* p) {
  return (uint64_t)(uintptr_t)p * 0x9E3779B97F4A7C15ull;
}

static void Charge(void* pc, int self, uint64_t weight) {
  const uint64_t h = Hash(pc) >> 16;
  for (unsigned probe = 0; probe < kSlots; ++probe) {
    struct Site* s = &sites[(h + probe) & (kSlots - 1)];
    int state = atomic_load(&s->state);
    if (state == kEmpty) {
      int expected = kEmpty;
      if (atomic_compare_exchange_strong(&s->state, &expected, kClaiming)) {
        s->pc = pc;
        atomic_store(&s->state, kReady);
        state = kReady;
      } else {
        state = expected;
      }
    }
    while (state == kClaiming) state = atomic_load(&s->state);
    if (s->pc == pc) {
      if (self) atomic_fetch_add(&s->self, weight);
      atomic_fetch_add(&s->inclusive, weight);
      return;
    }
  }
  atomic_fetch_add(&sites_dropped, 1);
}

static void ChargeThreadName(uint64_t weight) {
  char name[16] = {0};
  if (prctl(PR_GET_NAME, name) != 0) strcpy(name, "?");
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char* c = name; *c; ++c) {
    h = (h ^ (unsigned char)*c) * 1099511628211ull;
  }
  for (unsigned probe = 0; probe < kNames; ++probe) {
    struct Name* n = &names[(h + probe) & (kNames - 1)];
    int state = atomic_load(&n->state);
    if (state == kEmpty) {
      int expected = kEmpty;
      if (atomic_compare_exchange_strong(&n->state, &expected, kClaiming)) {
        memcpy(n->name, name, sizeof(name));
        atomic_store(&n->state, kReady);
        state = kReady;
      } else {
        state = expected;
      }
    }
    while (state == kClaiming) state = atomic_load(&n->state);
    if (memcmp(n->name, name, sizeof(name)) == 0) {
      atomic_fetch_add(&n->samples, weight);
      return;
    }
  }
}

static void OnSample(int sig, siginfo_t* info, void* ucontext) {
  (void)sig;
  if (in_handler) return;
  // CPU timers are checked at the scheduler tick, so several periods can
  // expire between two signals; the overrun count says how many more.
  const uint64_t weight =
      1 + (uint64_t)(info->si_overrun > 0 ? info->si_overrun : 0);
  if (NowNs() < start_ns) {
    atomic_fetch_add(&samples_early, weight);
    return;
  }
  in_handler = 1;
  void* frames[kDepth];
  const int n = backtrace(frames, kDepth);
  void* leaf = 0;
  int first_caller = 3;  // [0] this handler, [1] the signal trampoline
#if defined(__x86_64__)
  leaf = (void*)((ucontext_t*)ucontext)->uc_mcontext.gregs[REG_RIP];
  for (int i = 1; i < n && i < 6; ++i) {
    if (frames[i] == leaf) {
      first_caller = i + 1;
      break;
    }
  }
#else
  (void)ucontext;
  if (n > 2) leaf = frames[2];
#endif
  if (leaf != 0) {
    Charge(leaf, 1, weight);
    for (int i = first_caller; i < n; ++i) {
      // A return address points past its call: step back into it.
      void* pc = (char*)frames[i] - 1;
      int seen = pc == leaf;
      for (int j = first_caller; j < i && !seen; ++j) {
        seen = (char*)frames[j] - 1 == pc;
      }
      if (!seen) Charge(pc, 0, weight);
    }
    ChargeThreadName(weight);
    atomic_fetch_add(&samples_kept, weight);
  }
  in_handler = 0;
}

static void StartThreadTimer(void) {
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  timer_t timer;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer) != 0) return;
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000;
  its.it_interval.tv_nsec = period_ns % 1000000000;
  its.it_value = its.it_interval;
  timer_settime(timer, 0, &its, 0);
  // +1: timer ids start at 0, and a 0 key value runs no destructor.
  pthread_setspecific(timer_key, (void*)((uintptr_t)timer + 1));
}

static void StopThreadTimer(void* value) {
  timer_delete((timer_t)((uintptr_t)value - 1));
}

struct Start {
  void* (*fn)(void*);
  void* arg;
};

static void* Trampoline(void* p) {
  struct Start start = *(struct Start*)p;
  free(p);
  StartThreadTimer();
  return start.fn(start.arg);
}

int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*fn)(void*), void* arg) {
  struct Start* start = malloc(sizeof(*start));
  if (start == 0) return real_pthread_create(thread, attr, fn, arg);
  start->fn = fn;
  start->arg = arg;
  const int rc = real_pthread_create(thread, attr, Trampoline, start);
  if (rc != 0) free(start);
  return rc;
}

__attribute__((constructor)) static void Init(void) {
  real_pthread_create = dlsym(RTLD_NEXT, "pthread_create");
  const char* period = getenv("CPUPROF_PERIOD_US");
  if (period != 0 && atol(period) > 0) period_ns = atol(period) * 1000;
  const char* delay = getenv("CPUPROF_DELAY_MS");
  start_ns = NowNs() + (delay != 0 ? (uint64_t)atoll(delay) * 1000000u : 0);
  // The first backtrace() loads the unwinder; do it before any sample.
  void* frame;
  backtrace(&frame, 1);
  pthread_key_create(&timer_key, StopThreadTimer);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, 0);
  StartThreadTimer();
}

static void PrintFrame(FILE* out, void* addr) {
  Dl_info info;
  if (addr != 0 && dladdr(addr, &info) != 0 && info.dli_fname != 0) {
    fprintf(out, " %s 0x%lx", info.dli_fname[0] ? info.dli_fname : "?",
            (unsigned long)((uintptr_t)addr - (uintptr_t)info.dli_fbase));
  } else {
    fprintf(out, " ? 0x0");
  }
}

static int BySelfThenInclusive(const void* a, const void* b) {
  const struct Site* x = *(struct Site* const*)a;
  const struct Site* y = *(struct Site* const*)b;
  const uint64_t xs = atomic_load(&x->self), ys = atomic_load(&y->self);
  if (xs != ys) return xs < ys ? 1 : -1;
  const uint64_t xi = atomic_load(&x->inclusive);
  const uint64_t yi = atomic_load(&y->inclusive);
  return xi < yi ? 1 : (xi > yi ? -1 : 0);
}

static int BySamples(const void* a, const void* b) {
  const uint64_t x = atomic_load(&(*(struct Name* const*)a)->samples);
  const uint64_t y = atomic_load(&(*(struct Name* const*)b)->samples);
  return x < y ? 1 : (x > y ? -1 : 0);
}

__attribute__((destructor)) static void Dump(void) {
  in_handler = 1;  // no samples of the dump itself
  static struct Site* order[kSlots];
  static struct Name* name_order[kNames];
  int n = 0;
  for (int i = 0; i < kSlots; ++i) {
    if (atomic_load(&sites[i].state) == kReady) order[n++] = &sites[i];
  }
  qsort(order, n, sizeof(order[0]), BySelfThenInclusive);
  int m = 0;
  for (int i = 0; i < kNames; ++i) {
    if (atomic_load(&names[i].state) == kReady) name_order[m++] = &names[i];
  }
  qsort(name_order, m, sizeof(name_order[0]), BySamples);
  const char* path = getenv("CPUPROF_OUT");
  FILE* out = path != 0 ? fopen(path, "w") : stderr;
  if (out == 0) return;
  fprintf(out, "# samples %llu dropped_early %llu period_us %ld\n",
          (unsigned long long)atomic_load(&samples_kept),
          (unsigned long long)atomic_load(&samples_early), period_ns / 1000);
  if (atomic_load(&sites_dropped) != 0) {
    fprintf(out, "# %llu frames dropped: site table full\n",
            (unsigned long long)atomic_load(&sites_dropped));
  }
  for (int i = 0; i < n; ++i) {
    fprintf(out, "S %llu %llu",
            (unsigned long long)atomic_load(&order[i]->self),
            (unsigned long long)atomic_load(&order[i]->inclusive));
    PrintFrame(out, order[i]->pc);
    fputc('\n', out);
  }
  for (int i = 0; i < m; ++i) {
    fprintf(out, "T %llu %s\n",
            (unsigned long long)atomic_load(&name_order[i]->samples),
            name_order[i]->name);
  }
  if (out != stderr) fclose(out);
}
