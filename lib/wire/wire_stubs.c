/* Socket IO for the wire data path.

   OCaml's Unix.write and Unix.read take Bytes and bounce the data
   through a 64 KiB stack buffer, and there is no gather write.  These
   two stubs move bytes straight between the socket and Bigarrays
   (chunk roots, connection stages, receive buffers).  Bigarray data
   never moves, so the runtime lock is released across the syscall.
   Bounds checking stays on the OCaml side. */

#define CAML_NAME_SPACE
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/bigarray.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Segments per writev call; the caller loops over longer lists. */
#define EDEN_IOV_BATCH 64

/* writev of segments [first, first + count) of three parallel arrays
   (Bigarray, offset, length).  Returns the bytes written. */
CAMLprim value eden_wire_writev(value fd, value bufs, value offs, value lens,
                                value first, value count)
{
  CAMLparam5(fd, bufs, offs, lens, first);
  CAMLxparam1(count);
  struct iovec iov[EDEN_IOV_BATCH];
  long f = Long_val(first), n = Long_val(count);
  if (n > EDEN_IOV_BATCH) n = EDEN_IOV_BATCH;
  for (long i = 0; i < n; i++) {
    iov[i].iov_base = (char *) Caml_ba_data_val(Field(bufs, f + i))
                      + Long_val(Field(offs, f + i));
    iov[i].iov_len = Long_val(Field(lens, f + i));
  }
  caml_enter_blocking_section();
  ssize_t r = writev(Int_val(fd), iov, (int) n);
  caml_leave_blocking_section();
  if (r == -1) caml_uerror("writev", Nothing);
  CAMLreturn(Val_long(r));
}

CAMLprim value eden_wire_writev_byte(value *argv, int argn)
{
  (void) argn;
  return eden_wire_writev(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* read into [buf[pos, pos + len)]; returns the bytes read, 0 at EOF. */
CAMLprim value eden_wire_read(value fd, value buf, value pos, value len)
{
  CAMLparam4(fd, buf, pos, len);
  char *p = (char *) Caml_ba_data_val(buf) + Long_val(pos);
  size_t n = Long_val(len);
  caml_enter_blocking_section();
  ssize_t r = read(Int_val(fd), p, n);
  caml_leave_blocking_section();
  if (r == -1) caml_uerror("read", Nothing);
  CAMLreturn(Val_long(r));
}

/* SipHash-2-4 of [prefix ^ data[pos, pos + len)] under a 16-byte key.
   [data] is a string or a Bigarray; [prefix] is a whole number of
   8-byte words (checked on the OCaml side), so the two pieces join on
   a word boundary and the concatenation is never materialised. */

#include <stdint.h>
#include <string.h>

static inline uint64_t eden_le64(const unsigned char *p)
{
  return (uint64_t) p[0] | ((uint64_t) p[1] << 8) | ((uint64_t) p[2] << 16)
         | ((uint64_t) p[3] << 24) | ((uint64_t) p[4] << 32) | ((uint64_t) p[5] << 40)
         | ((uint64_t) p[6] << 48) | ((uint64_t) p[7] << 56);
}

#define EDEN_ROTL(x, b) (uint64_t) (((x) << (b)) | ((x) >> (64 - (b))))
#define EDEN_SIPROUND                                                     \
  do {                                                                    \
    v0 += v1; v1 = EDEN_ROTL(v1, 13); v1 ^= v0; v0 = EDEN_ROTL(v0, 32);   \
    v2 += v3; v3 = EDEN_ROTL(v3, 16); v3 ^= v2;                           \
    v0 += v3; v3 = EDEN_ROTL(v3, 21); v3 ^= v0;                           \
    v2 += v1; v1 = EDEN_ROTL(v1, 17); v1 ^= v2; v2 = EDEN_ROTL(v2, 32);   \
  } while (0)

int64_t eden_wire_siphash(value key, value prefix, value data, value pos, value len)
{
  const unsigned char *k = (const unsigned char *) String_val(key);
  uint64_t k0 = eden_le64(k), k1 = eden_le64(k + 8);
  uint64_t v0 = k0 ^ 0x736f6d6570736575ULL, v1 = k1 ^ 0x646f72616e646f6dULL;
  uint64_t v2 = k0 ^ 0x6c7967656e657261ULL, v3 = k1 ^ 0x7465646279746573ULL;
  const unsigned char *pre = (const unsigned char *) String_val(prefix);
  size_t plen = caml_string_length(prefix);
  const unsigned char *d =
    (Tag_val(data) == String_tag ? (const unsigned char *) String_val(data)
                                 : (const unsigned char *) Caml_ba_data_val(data))
    + Long_val(pos);
  size_t n = Long_val(len);
  uint64_t m;
  for (size_t i = 0; i + 8 <= plen; i += 8) {
    m = eden_le64(pre + i);
    v3 ^= m; EDEN_SIPROUND; EDEN_SIPROUND; v0 ^= m;
  }
  size_t full = n & ~(size_t) 7;
  for (size_t i = 0; i < full; i += 8) {
    m = eden_le64(d + i);
    v3 ^= m; EDEN_SIPROUND; EDEN_SIPROUND; v0 ^= m;
  }
  m = (uint64_t) ((plen + n) & 0xFF) << 56;
  for (size_t i = 0; i < (n & 7); i++) m |= (uint64_t) d[full + i] << (8 * i);
  v3 ^= m; EDEN_SIPROUND; EDEN_SIPROUND; v0 ^= m;
  v2 ^= 0xFF;
  EDEN_SIPROUND; EDEN_SIPROUND; EDEN_SIPROUND; EDEN_SIPROUND;
  return (int64_t) (v0 ^ v1 ^ v2 ^ v3);
}

CAMLprim value eden_wire_siphash_byte(value key, value prefix, value data, value pos,
                                      value len)
{
  return caml_copy_int64(eden_wire_siphash(key, prefix, data, pos, len));
}
