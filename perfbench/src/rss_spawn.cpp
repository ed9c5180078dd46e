// perfbench_rss: runs a command and writes the peak RSS of its process tree.
//
//   perfbench_rss <rss-file> <program> [args...]
//
// Waits for the command, writes the largest peak RSS (KiB) of any process
// in its tree to <rss-file>, and exits with the command's status (128 + the
// signal number if it was killed; 125 on an error of its own).
//
// Why a separate process: a child forked from the benchmark starts with a
// copy of the benchmark's memory map, and Linux folds that map's peak RSS
// into the child's ru_maxrss at exec. So wait4() on such a child reports at
// least the benchmark's own RSS. This helper is small, and the command is
// forked from it, so RUSAGE_CHILDREN here measures the command alone.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_rss <rss-file> <program> [args...]\n");
    return 125;
  }
  const pid_t pid = fork();
  if (pid < 0) return 125;
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    _exit(127);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return 125;
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  FILE* f = std::fopen(argv[1], "w");
  if (!f) return 125;
  std::fprintf(f, "%ld\n", ru.ru_maxrss);
  if (std::fclose(f) != 0) return 125;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
