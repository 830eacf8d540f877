/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78) and a monotonic
   clock for rae_util.

   Two CRC paths compute the same function:
   - on x86-64 hosts with SSE4.2, the [crc32] instruction, eight bytes per
     step;
   - everywhere else, slicing-by-8: eight input bytes folded per step
     through eight 256-entry tables whose lookups are independent.

   The path is chosen once, when the program is loaded, by a constructor
   that also fills the tables; nothing is decided or built lazily, so any
   domain may call in at any time.  The table path stays reachable through
   its own entry point so tests can check it on hosts that would never
   select it.

   The CRC entry points take and return the CRC as an untagged native int
   and do not allocate ([@@noalloc] on the OCaml side). */

#include <stdint.h>
#include <string.h>
#include <time.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>

#define CRC32C_POLY 0x82F63B78u

/* crc_tables[k][v]: the CRC of byte [v] followed by [k] zero bytes. */
static uint32_t crc_tables[8][256];

static inline uint64_t load_le64(const unsigned char *p)
{
  uint64_t v;
  memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

static uint32_t crc32c_table(uint32_t crc, const unsigned char *p, size_t len)
{
  uint32_t c = ~crc;
  while (len >= 8) {
    uint64_t w = load_le64(p) ^ c;
    c = crc_tables[7][w & 0xFF]
      ^ crc_tables[6][(w >> 8) & 0xFF]
      ^ crc_tables[5][(w >> 16) & 0xFF]
      ^ crc_tables[4][(w >> 24) & 0xFF]
      ^ crc_tables[3][(w >> 32) & 0xFF]
      ^ crc_tables[2][(w >> 40) & 0xFF]
      ^ crc_tables[1][(w >> 48) & 0xFF]
      ^ crc_tables[0][w >> 56];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = crc_tables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    p++;
    len--;
  }
  return ~c;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAE_HAVE_SSE42 1
#include <nmmintrin.h>

__attribute__((target("sse4.2")))
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = ~crc;
  while (len >= 8) {
    c = _mm_crc32_u64(c, load_le64(p));
    p += 8;
    len -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (len > 0) {
    c32 = _mm_crc32_u8(c32, *p);
    p++;
    len--;
  }
  return ~c32;
}
#endif

static uint32_t (*crc32c_impl)(uint32_t, const unsigned char *, size_t) = crc32c_table;

__attribute__((constructor))
static void rae_crc32c_init(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? (c >> 1) ^ CRC32C_POLY : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (uint32_t n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = crc_tables[0][prev & 0xFF] ^ (prev >> 8);
    }
#ifdef RAE_HAVE_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2"))
    crc32c_impl = crc32c_sse42;
#endif
}

/* The OCaml side has bounds-checked [pos] and [len] against the buffer. */

intnat rae_crc32c(intnat crc, value buf, intnat pos, intnat len)
{
  return crc32c_impl((uint32_t)crc, Bytes_val(buf) + pos, (size_t)len);
}

value rae_crc32c_byte(value crc, value buf, value pos, value len)
{
  return Val_long(rae_crc32c(Long_val(crc), buf, Long_val(pos), Long_val(len)));
}

intnat rae_crc32c_table(intnat crc, value buf, intnat pos, intnat len)
{
  return crc32c_table((uint32_t)crc, Bytes_val(buf) + pos, (size_t)len);
}

value rae_crc32c_table_byte(value crc, value buf, value pos, value len)
{
  return Val_long(rae_crc32c_table(Long_val(crc), buf, Long_val(pos), Long_val(len)));
}

/* CLOCK_MONOTONIC in nanoseconds. */

int64_t rae_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value rae_monotonic_ns_byte(value unit)
{
  return caml_copy_int64(rae_monotonic_ns(unit));
}
