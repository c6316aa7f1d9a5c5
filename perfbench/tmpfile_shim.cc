// Keeps the engine's page files inside the benchmark's own directory.
//
// PageFile::CreateTemp (src/buffer/page_file.cc) backs every spilled
// relation with std::tmpfile(), which glibc places in /tmp regardless of
// TMPDIR. The benchmark must read and write only inside its checkout, so
// this executable defines tmpfile() itself: the static engine archives
// linked into it resolve their call here, at link time, and the file is
// created (already unlinked) in $PERFBENCH_TMPDIR instead. The I/O pattern
// is unchanged: an anonymous file, reclaimed when it is closed.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

extern "C" FILE* tmpfile(void) {
  const char* dir = std::getenv("PERFBENCH_TMPDIR");
  const std::string base = dir != nullptr && dir[0] != '\0' ? dir : ".";
#ifdef O_TMPFILE
  const int anon = open(base.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (anon >= 0) {
    FILE* file = fdopen(anon, "w+b");
    if (file == nullptr) close(anon);
    return file;
  }
#endif
  // Filesystems without O_TMPFILE: create a named file and unlink it.
  std::string path = base + "/tempus-page-XXXXXX";
  const int fd = mkostemp(path.data(), O_CLOEXEC);
  if (fd < 0) return nullptr;
  unlink(path.c_str());
  FILE* file = fdopen(fd, "w+b");
  if (file == nullptr) {
    const int saved = errno;
    close(fd);
    errno = saved;
  }
  return file;
}
