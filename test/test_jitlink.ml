(* JIT linker: objects with internal and external relocations become
   executable code in the emulator, with PLT stubs and GOT slots for
   runtime symbols. Also covers unwind-table registration and MIR machine
   passes (parallel-move phi elimination). *)

open Qcomp_vm
open Qcomp_llvm

let check = Alcotest.check

let suite =
  [
    Alcotest.test_case "link end-to-end: call external through PLT" `Quick
      (fun () ->
        (* assemble f: call ext@plt; add 1; ret — with a real Call_rel fixup
           left for the linker via an Elf reloc *)
        let target = Target.x64 in
        let emu = Emu.create ~mem_size:(1 lsl 21) target in
        let ext_addr =
          Emu.add_runtime emu (fun e ->
              let v = Emu.reg e (Emu.arg_reg e 0) in
              Emu.set_reg e target.Target.ret_regs.(0) (Int64.mul v 10L))
        in
        ignore ext_addr;
        let a = Asm.create target in
        (* call rel32 with placeholder displacement; reloc points at the
           4 displacement bytes *)
        let call_pos = 1 in
        Asm.emit a (Minst.Call_rel 0);
        Asm.emit a (Minst.Alu_ri (Minst.Add, 0, 1L));
        Asm.emit a Minst.Ret;
        let text = Asm.finish a in
        let obj =
          {
            Elf.o_text = text;
            o_syms =
              [
                { Elf.s_name = "f"; s_off = 0; s_size = Bytes.length text; s_defined = true };
                { Elf.s_name = "umbra_test_ext"; s_off = 0; s_size = 0; s_defined = false };
              ];
            o_relocs = [ { Elf.r_off = call_pos; r_sym = "umbra_test_ext@plt"; r_kind = Elf.Plt32 } ];
          }
        in
        let linked =
          Jitlink.link ~emu
            ~resolve:(fun sym ->
              match sym with
              | "umbra_test_ext" -> ext_addr
              | _ -> 0L)
            (Elf.write obj)
        in
        check Alcotest.bool "got slot allocated" true (linked.Jitlink.got_slots >= 1);
        let f_addr = Hashtbl.find linked.Jitlink.fn_addr "f" in
        let r, _ = Emu.call emu ~addr:f_addr ~args:[| 4L |] in
        check Alcotest.int64 "4*10+1" 41L r);
    Alcotest.test_case "phase times are recorded" `Quick (fun () ->
        let target = Target.x64 in
        let emu = Emu.create ~mem_size:(1 lsl 21) target in
        let a = Asm.create target in
        Asm.emit a Minst.Ret;
        let obj =
          {
            Elf.o_text = Asm.finish a;
            o_syms = [ { Elf.s_name = "g"; s_off = 0; s_size = 1; s_defined = true } ];
            o_relocs = [];
          }
        in
        let linked = Jitlink.link ~emu ~resolve:(fun _ -> 0L) (Elf.write obj) in
        let t = linked.Jitlink.times in
        check Alcotest.bool "non-negative phases" true
          (t.Jitlink.ph_alloc >= 0.0 && t.Jitlink.ph_resolve >= 0.0
          && t.Jitlink.ph_apply >= 0.0 && t.Jitlink.ph_lookup >= 0.0);
        check Alcotest.int "no GOT without externs" 0 linked.Jitlink.got_slots);
    Alcotest.test_case "unwind: rule lookup by address" `Quick (fun () ->
        let u = Unwind.create () in
        Unwind.register u ~start:0x1000 ~size:64 ~sync_only:false
          [
            (0, { Unwind.cfa_offset = 8; saved_regs = [] });
            (16, { Unwind.cfa_offset = 48; saved_regs = [ (3, 0) ] });
          ];
        (match Unwind.rule_at u 0x1004 with
        | Some r -> check Alcotest.int "prologue rule" 8 r.Unwind.cfa_offset
        | None -> Alcotest.fail "expected rule");
        (match Unwind.rule_at u 0x1020 with
        | Some r ->
            check Alcotest.int "body rule" 48 r.Unwind.cfa_offset;
            check Alcotest.(list (pair int int)) "saved" [ (3, 0) ] r.Unwind.saved_regs
        | None -> Alcotest.fail "expected rule");
        check Alcotest.bool "outside" true (Unwind.rule_at u 0x2000 = None);
        check Alcotest.int "fde count" 1 (Unwind.num_fdes u);
        check Alcotest.bool "bytes accounted" true (Unwind.bytes_written u > 0));
    Alcotest.test_case "phi_elim resolves swap cycles without extra temps per edge"
      `Quick (fun () ->
        (* block 0 jumps to block 1 with phis a<-b, b<-a (a swap): the
           parallel-move sequencer must produce exactly 3 moves (one temp),
           not 4 as two-phase staging would *)
        let m = Mir.create Target.x64 2 in
        let b0 = 0 and b1 = 1 in
        let va = Mir.new_vreg m and vb = Mir.new_vreg m in
        Mir.push m b0 (Mir.M (Minst.Mov_ri (va, 1L)));
        Mir.push m b0 (Mir.M (Minst.Mov_ri (vb, 2L)));
        Mir.push m b0 (Mir.M (Minst.Jmp 0));
        let pa = Mir.new_vreg m and pb = Mir.new_vreg m in
        Mir.push m b1 (Mir.Mphi { dst = pa; incoming = [| (b0, vb) |] });
        Mir.push m b1 (Mir.Mphi { dst = pb; incoming = [| (b0, va) |] });
        Mir.push m b1 (Mir.M Minst.Ret);
        Mpasses.phi_elim m;
        let moves b =
          let n = ref 0 in
          Qcomp_support.Vec.iter
            (fun i -> match i with Mir.M (Minst.Mov_rr _) -> incr n | _ -> ())
            m.Mir.blocks.(b).Mir.insts
        ; !n
        in
        (* dst vregs differ from sources here, so no cycle: exactly 2 moves *)
        check Alcotest.int "2 copies" 2 (moves b0);
        (* no phis left *)
        Qcomp_support.Vec.iter
          (fun i ->
            match i with
            | Mir.Mphi _ -> Alcotest.fail "phi left behind"
            | _ -> ())
          m.Mir.blocks.(b1).Mir.insts);
    Alcotest.test_case "phi_elim breaks a real swap cycle with one temp" `Quick
      (fun () ->
        let m = Mir.create Target.x64 2 in
        let b0 = 0 and b1 = 1 in
        let pa = Mir.new_vreg m and pb = Mir.new_vreg m in
        Mir.push m b0 (Mir.M (Minst.Mov_ri (pa, 1L)));
        Mir.push m b0 (Mir.M (Minst.Mov_ri (pb, 2L)));
        Mir.push m b0 (Mir.M (Minst.Jmp 0));
        (* b1's phis swap pa and pb (sources are the dsts themselves) *)
        Mir.push m b1 (Mir.Mphi { dst = pa; incoming = [| (b0, pb) |] });
        Mir.push m b1 (Mir.Mphi { dst = pb; incoming = [| (b0, pa) |] });
        Mir.push m b1 (Mir.M Minst.Ret);
        Mpasses.phi_elim m;
        let moves = ref 0 in
        Qcomp_support.Vec.iter
          (fun i -> match i with Mir.M (Minst.Mov_rr _) -> incr moves | _ -> ())
          m.Mir.blocks.(b0).Mir.insts;
        check Alcotest.int "3 moves for a 2-cycle" 3 !moves);
    Alcotest.test_case "remove_identity_moves drops only self-moves" `Quick
      (fun () ->
        let m = Mir.create Target.x64 1 in
        Mir.push m 0 (Mir.M (Minst.Mov_rr (3, 3)));
        Mir.push m 0 (Mir.M (Minst.Mov_rr (3, 4)));
        Mir.push m 0 (Mir.M Minst.Ret);
        Mpasses.remove_identity_moves m;
        check Alcotest.int "2 left" 2
          (Qcomp_support.Vec.length m.Mir.blocks.(0).Mir.insts));
  ]
