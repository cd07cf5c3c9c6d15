/* Host ISA probe (see repro.native.build.isa_level): the highest x86-64
 * micro-architecture level the running CPU and OS support, 0 for
 * baseline or a non-x86-64 target.  A toolchain without the level
 * names fails to build it, which the loader also reads as baseline. */

int isa_level(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4"))
        return 4;
    if (__builtin_cpu_supports("x86-64-v3"))
        return 3;
#endif
    return 0;
}
