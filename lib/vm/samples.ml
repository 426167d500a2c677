(* Canned filter programs. Kept as assembler source so the docs, the
   tests and the CLI all exercise the same text format. *)

let compile src =
  match Asm.load src with
  | Ok p -> p
  | Error e -> invalid_arg ("Samples: " ^ e)

let checksum_src =
  {|; FNV-1a over the payload, mixed with the block number -- bit-identical
; to the built-in Checksum stage. The digest goes out as key 0, which
; the graph folds into the edge checksum.
fuel 400000
    len r1
    mov r2, 0x811c9dc5
    mov r0, 0
    loop r1, 65536
    ldp r3, r0
    xor r2, r3
    mul r2, 0x01000193
    and r2, 0xffffffff
    add r0, 1
    end
    blkno r3
    add r3, 1
    mul r3, 0x9e3779b9
    xor r2, r3
    and r2, 0xffffffff
    emit 0, r2
    ret
|}

let checksum () = compile checksum_src

let tee_hash_src =
  {|; Content hash of the payload, emitted as key 1: a tee that records
; a fingerprint instead of copying the bytes. Read-only: safe as a
; probe attachment.
fuel 400000
context readonly
    len r1
    mov r2, 0x811c9dc5
    mov r0, 0
    loop r1, 65536
    ldp r3, r0
    xor r2, r3
    mul r2, 0x01000193
    and r2, 0xffffffff
    add r0, 1
    end
    emit 1, r2
    ret
|}

let tee_hash () = compile tee_hash_src

let dropper ~modulo =
  if modulo < 1 then invalid_arg "Samples.dropper: modulo < 1";
  compile
    (Printf.sprintf
       {|; Drop every block whose number is a multiple of %d.
fuel 16
    blkno r0
    rem r0, %d
    jne r0, 0, keep
    drop
keep:
    ret
|}
       modulo modulo)

let router ~fanout =
  if fanout < 1 then invalid_arg "Samples.router: fanout < 1";
  compile
    (Printf.sprintf
       {|; Content routing: block b goes to sibling edge (b mod %d).
fuel 16
    blkno r0
    rem r0, %d
    redirect r0
|}
       fanout fanout)

let xor_mask ~key =
  compile
    (Printf.sprintf
       {|; Transform: XOR every payload byte with 0x%02x (copy-on-write).
fuel 400000
    len r1
    mov r0, 0
    loop r1, 65536
    ldp r2, r0
    xor r2, %d
    stp r0, r2
    add r0, 1
    end
    ret
|}
       (key land 0xff) (key land 0xff))

let xor_stream ~key =
  compile
    (Printf.sprintf
       {|; Keyed xor-stream cipher (copy-on-write): every byte is XORed with
; a per-block key byte derived from the stream key and the block
; number, so identical plaintext blocks encrypt differently. The loop
; body is the scatter/store idiom; self-inverse for the same key.
fuel 400000
    len r1
    blkno r3
    add r3, 1
    mul r3, 0x9e3779b9
    xor r3, %d
    and r3, 0xff
    mov r0, 0
    loop r1, 65536
    ldp r2, r0
    xor r2, r3
    stp r0, r2
    add r0, 1
    end
    ret
|}
       (key land 0xff))

let histogram_src =
  {|; Block-local byte histogram + entropy probe, read-only. The scratch
; arena (256 cells, power of two: the "scratch-index" rule) is cleared
; per block, filled by the histogram idiom (ldp/ldsx/add/stsx/add),
; then scanned for the number of distinct byte values, emitted as
; key 4 -- a cheap entropy signal next to the disk (compressibility,
; encrypted-vs-plaintext detection).
fuel 400000
scratch 256
context readonly
    mov r0, 0
    loop 256, 256
    stsx r0, 0
    add r0, 1
    end
    len r1
    mov r0, 0
    loop r1, 65536
    ldp r2, r0
    ldsx r3, r2
    add r3, 1
    stsx r2, r3
    add r0, 1
    end
    mov r4, 0
    mov r5, 0
    loop 256, 256
    ldsx r6, r4
    jeq r6, 0, next
    add r5, 1
next:
    add r4, 1
    end
    emit 4, r5
    ret
|}

let histogram () = compile histogram_src

let dedup_chunks ~bits =
  if bits < 1 || bits > 24 then invalid_arg "Samples.dedup_chunks: bits";
  let mask = (1 lsl bits) - 1 in
  compile
    (Printf.sprintf
       {|; Content-defined chunking for dedup, read-only: a multiplicative
; rolling hash over the payload; positions where its low %d bits are
; all ones are chunk boundaries (expected chunk ~%d bytes), and the
; hash at each boundary goes out as key 3 -- the chunk fingerprint a
; dedup index would look up. The loop is the rolling-hash idiom.
fuel 700000
context readonly
    len r1
    mov r2, 0
    mov r0, 0
    loop r1, 65536
    ldp r3, r0
    mul r2, 0x01000193
    add r2, r3
    and r2, 0xffffff
    add r0, 1
    mov r4, r2
    and r4, %d
    jne r4, %d, next
    emit 3, r2
next:
    end
    ret
|}
       bits (1 lsl bits) mask mask)

let bounded_copy_src =
  {|; Mirror the 32-byte header into the next 32 bytes (copy-on-write),
; skipping blocks shorter than 64 bytes. The leading jge guard is what
; lets the range analysis prove every ldp/stp of the loop in bounds
; (r0 in [0,31], r3 in [32,63], len >= 64 on the copy path): its
; verdict table is all proven, though every access still tests its
; offset at run time.
fuel 400
    len r1
    jge r1, 64, copy
    ret
copy:
    mov r0, 0
    loop 32, 32
    ldp r2, r0
    mov r3, r0
    add r3, 32
    stp r3, r2
    add r0, 1
    end
    ret
|}

let bounded_copy () = compile bounded_copy_src

let oob_probe () =
  compile
    {|; Verifies (payload bounds are a run-time check) but always faults:
; loads one byte past the payload.
fuel 16
    len r0
    ldp r1, r0
    ret
|}
