type t = {
  mutable syscall_ns : int;
  mutable irq_dispatch_ns : int;
  mutable spinlock_ns : int;
  mutable semaphore_ns : int;
  mutable ctx_switch_ns : int;
  mutable port_io_ns : int;
  mutable mmio_ns : int;
  mutable xpc_kernel_user_ns : int;
  mutable xpc_c_java_ns : int;
  mutable marshal_byte_ns : int;
  mutable remarshal_byte_ns : int;
  mutable objtracker_lookup_ns : int;
  mutable xpc_dispatch_ns : int;
  mutable guard_check_ns : int;
  mutable ring_slot_write_ns : int;
  mutable ring_slot_read_ns : int;
  mutable jvm_startup_ns : int;
}

let current =
  {
    syscall_ns = 300;
    irq_dispatch_ns = 2_000;
    spinlock_ns = 100;
    semaphore_ns = 400;
    ctx_switch_ns = 1_500;
    port_io_ns = 600;
    mmio_ns = 120;
    xpc_kernel_user_ns = 6_000;
    xpc_c_java_ns = 4_000;
    marshal_byte_ns = 40;
    remarshal_byte_ns = 60;
    objtracker_lookup_ns = 150;
    xpc_dispatch_ns = 250;
    guard_check_ns = 30;
    ring_slot_write_ns = 45;
    ring_slot_read_ns = 25;
    jvm_startup_ns = 300_000_000;
  }
