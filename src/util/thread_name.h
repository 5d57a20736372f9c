// Names the calling thread, so per-thread profiles (scripts/cpuprof.sh)
// and debuggers can tell the long-lived threads apart. Linux keeps at
// most 15 characters; longer names are cut there.
#pragma once

#include <pthread.h>

#include <cstring>

namespace untx {

inline void SetCurrentThreadName(const char* name) {
#if defined(__linux__)
  char buf[16];
  std::strncpy(buf, name, sizeof(buf) - 1);
  buf[sizeof(buf) - 1] = '\0';
  pthread_setname_np(pthread_self(), buf);
#else
  (void)name;
#endif
}

}  // namespace untx
