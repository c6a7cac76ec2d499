(** Legacy 8139too driver source (mini-C), scaled down from the
    1,916-line original. Shape per the paper's Table 2: a small nucleus
    (data path + interrupt), a C driver library portion (functions kept
    in C during migration), and the rest converted to Java. *)

let source =
  {|#include <linux/module.h>
#include <linux/netdevice.h>

#define RX_BUF_LEN 8192

struct rtl8139_stats {
  long long packets;
  long long bytes;
};

struct rtl8139_private {
  struct rtl8139_stats xstats;    /* first member: aliases the private */
  unsigned int io_base;
  int cur_tx;
  int dirty_tx;
  int cur_rx;
  int msg_enable;
  int media;
  int twistie;
  int time_to_die;
  uint8_t * __attribute__((exp(RX_BUF_LEN))) rx_ring;
  char mac_addr[6];
};

int pci_enable_device(struct rtl8139_private *tp);
int request_irq(int irq, int handler);
void free_irq(int irq);
int register_netdev(struct rtl8139_private *tp);
void unregister_netdev(struct rtl8139_private *tp);
void netif_start_queue(struct rtl8139_private *tp);
void netif_stop_queue(struct rtl8139_private *tp);
void netif_wake_queue(struct rtl8139_private *tp);
void netif_rx(struct rtl8139_private *tp, int len);
void netif_carrier_on(struct rtl8139_private *tp);
void netif_carrier_off(struct rtl8139_private *tp);
int ioread8(unsigned int addr);
int ioread16(unsigned int addr);
unsigned int ioread32(unsigned int addr);
void iowrite8(unsigned int addr, int value);
void iowrite16(unsigned int addr, int value);
void iowrite32(unsigned int addr, unsigned int value);
int kmalloc_buf(int size);
void kfree_buf(int ptr);
void udelay(int usec);
void mod_timer(int expires);
void printk_info(int code);
void spin_lock(int lock);
void spin_unlock(int lock);

/* ================ data path: stays in the kernel ================ */

static int rtl8139_start_xmit(struct rtl8139_private *tp, int len) {
  int entry = tp->cur_tx % 4;
  if (tp->cur_tx - tp->dirty_tx >= 4) {
    netif_stop_queue(tp);
    return -16;
  }
  iowrite32(tp->io_base + 0x10 + 4 * entry, len);
  tp->cur_tx = tp->cur_tx + 1;
  return 0;
}

static void rtl8139_tx_interrupt(struct rtl8139_private *tp) {
  while (tp->dirty_tx != tp->cur_tx) {
    int txstatus = ioread32(tp->io_base + 0x10 + 4 * (tp->dirty_tx % 4));
    if (!(txstatus & 0x2000))
      break;
    tp->dirty_tx = tp->dirty_tx + 1;
  }
  netif_wake_queue(tp);
}

static void rtl8139_rx_interrupt(struct rtl8139_private *tp) {
  while (!(ioread8(tp->io_base + 0x37) & 0x1)) {
    netif_rx(tp, 1514);
    tp->cur_rx = tp->cur_rx + 1;
    iowrite16(tp->io_base + 0x38, tp->cur_rx);
  }
}

static void rtl8139_weird_interrupt(struct rtl8139_private *tp) {
  tp->msg_enable = tp->msg_enable | 0x1000;
  printk_info(1);
}

static void rtl8139_interrupt(struct rtl8139_private *tp) {
  int status;
  spin_lock(0);
  status = ioread16(tp->io_base + 0x3e);
  if (!status) {
    spin_unlock(0);
    return;
  }
  iowrite16(tp->io_base + 0x3e, status);
  if (status & 0x4)
    rtl8139_tx_interrupt(tp);
  if (status & 0x1)
    rtl8139_rx_interrupt(tp);
  if (status & 0x8060)
    rtl8139_weird_interrupt(tp);
  spin_unlock(0);
}

static int rtl8139_poll(struct rtl8139_private *tp, int budget) {
  int done = 0;
  while (done < budget && tp->cur_rx != tp->dirty_tx) {
    netif_rx(tp, 1514);
    done = done + 1;
  }
  return done;
}

/* ================ driver library: kept in C ================ */

static int rtl8139_read_eeprom(struct rtl8139_private *tp, int location) {
  int i;
  int val = 0;
  iowrite8(tp->io_base + 0x50, 0x80);
  for (i = 0; i < 16; i++) {
    iowrite8(tp->io_base + 0x50, (location >> i) & 1);
    udelay(1);
    val = (val << 1) | (ioread8(tp->io_base + 0x50) & 1);
  }
  iowrite8(tp->io_base + 0x50, 0);
  return val;
}

static int mdio_read(struct rtl8139_private *tp, int reg) {
  int i;
  int val = 0;
  for (i = 0; i < 32; i++) {
    iowrite8(tp->io_base + 0x58, 0x4);
    udelay(1);
    val = (val << 1) | (ioread8(tp->io_base + 0x58) & 2);
  }
  return val;
}

static void mdio_write(struct rtl8139_private *tp, int reg, int value) {
  int i;
  for (i = 0; i < 32; i++) {
    iowrite8(tp->io_base + 0x58, (value >> i) & 1);
    udelay(1);
  }
}

static int rtl8139_get_media(struct rtl8139_private *tp) {
  int bmsr = mdio_read(tp, 1);
  if (bmsr & 0x4)
    return 1;
  return 0;
}

static void rtl8139_set_media(struct rtl8139_private *tp, int media) {
  tp->media = media;
  mdio_write(tp, 0, media);
}

static void rtl8139_twister_update(struct rtl8139_private *tp) {
  if (tp->twistie == 1) {
    iowrite32(tp->io_base + 0x5c, 0x8000);
    tp->twistie = 2;
  }
}

static int rtl8139_get_wol(struct rtl8139_private *tp) {
  int cfg3 = ioread8(tp->io_base + 0x59);
  int wolopts = 0;
  if (cfg3 & 0x20)
    wolopts = wolopts | 0x1;
  if (cfg3 & 0x10)
    wolopts = wolopts | 0x2;
  return wolopts;
}

static int rtl8139_set_wol(struct rtl8139_private *tp, int wolopts) {
  int cfg3 = ioread8(tp->io_base + 0x59);
  iowrite8(tp->io_base + 0x50, 0xc0);
  if (wolopts & 0x1)
    cfg3 = cfg3 | 0x20;
  else
    cfg3 = cfg3 & ~0x20;
  iowrite8(tp->io_base + 0x59, cfg3);
  iowrite8(tp->io_base + 0x50, 0);
  return 0;
}

static int rtl8139_get_msglevel(struct rtl8139_private *tp) {
  DECAF_RVAR(tp->msg_enable);
  return tp->msg_enable;
}

static void rtl8139_set_msglevel(struct rtl8139_private *tp, int value) {
  tp->msg_enable = value;
}

/* ================ converted to Java ================ */

static void rtl8139_chip_reset(struct rtl8139_private *tp) {
  int i;
  iowrite8(tp->io_base + 0x37, 0x10);
  for (i = 0; i < 100; i++) {
    if (!(ioread8(tp->io_base + 0x37) & 0x10))
      break;
    udelay(10);
  }
}

static int rtl8139_init_board(struct rtl8139_private *tp) {
  int err = pci_enable_device(tp);
  if (err)
    return err;
  rtl8139_chip_reset(tp);
  return 0;
}

static void rtl8139_read_mac(struct rtl8139_private *tp) {
  int i;
  DECAF_WVAR(tp->mac_addr);
  for (i = 0; i < 6; i++)
    tp->mac_addr[i] = ioread8(tp->io_base + i);
}

static void rtl8139_hw_start(struct rtl8139_private *tp) {
  iowrite8(tp->io_base + 0x37, 0xc);
  iowrite32(tp->io_base + 0x44, 0xf);
  iowrite32(tp->io_base + 0x40, 0x600);
  iowrite32(tp->io_base + 0x30, 0x100000);
  iowrite16(tp->io_base + 0x3c, 0xffff);
}

static void rtl8139_init_ring(struct rtl8139_private *tp) {
  tp->cur_rx = 0;
  tp->cur_tx = 0;
  tp->dirty_tx = 0;
}

static int rtl8139_open(struct rtl8139_private *tp) {
  int err;
  int buf;
  err = request_irq(10, 1);
  if (err)
    return err;
  buf = kmalloc_buf(RX_BUF_LEN);
  if (!buf)
    goto err_free_irq;
  rtl8139_init_ring(tp);
  rtl8139_hw_start(tp);
  netif_start_queue(tp);
  return 0;
err_free_irq:
  free_irq(10);
  return -12;
}

static int rtl8139_close(struct rtl8139_private *tp) {
  netif_stop_queue(tp);
  iowrite8(tp->io_base + 0x37, 0);
  iowrite16(tp->io_base + 0x3c, 0);
  free_irq(10);
  kfree_buf(0);
  return 0;
}

static void rtl8139_set_rx_mode(struct rtl8139_private *tp) {
  unsigned int rx_mode = 0xf;
  iowrite32(tp->io_base + 0x44, rx_mode);
}

static int rtl8139_set_mac_address(struct rtl8139_private *tp, char *addr) {
  int i;
  for (i = 0; i < 6; i++)
    tp->mac_addr[i] = addr[i];
  for (i = 0; i < 6; i++)
    iowrite8(tp->io_base + i, addr[i]);
  return 0;
}

static int rtl8139_get_stats(struct rtl8139_private *tp) {
  DECAF_RVAR(tp->msg_enable);
  return tp->msg_enable;
}

static void rtl8139_timer(struct rtl8139_private *tp) {
  int media = rtl8139_get_media(tp);
  if (media != tp->media) {
    rtl8139_set_media(tp, media);
    if (media)
      netif_carrier_on(tp);
    else
      netif_carrier_off(tp);
  }
  rtl8139_twister_update(tp);
  mod_timer(2000);
}

static void rtl8139_tx_timeout(struct rtl8139_private *tp) {
  rtl8139_chip_reset(tp);
  rtl8139_hw_start(tp);
  netif_wake_queue(tp);
}

static int rtl8139_probe(struct rtl8139_private *tp) {
  int err;
  int eeprom_val;
  err = rtl8139_init_board(tp);
  if (err)
    return err;
  eeprom_val = rtl8139_read_eeprom(tp, 0);
  if (eeprom_val == 0x8129)
    rtl8139_read_mac(tp);
  err = register_netdev(tp);
  if (err)
    goto err_out;
  netif_carrier_off(tp);
  return 0;
err_out:
  rtl8139_chip_reset(tp);
  return err;
}

static void rtl8139_remove(struct rtl8139_private *tp) {
  unregister_netdev(tp);
  rtl8139_chip_reset(tp);
}

static int rtl8139_suspend(struct rtl8139_private *tp) {
  netif_stop_queue(tp);
  iowrite8(tp->io_base + 0x37, 0);
  return 0;
}

static int rtl8139_resume(struct rtl8139_private *tp) {
  rtl8139_hw_start(tp);
  netif_start_queue(tp);
  return 0;
}
|}

let config =
  {
    Decaf_slicer.Slicer.partition =
      {
        Decaf_slicer.Partition.driver_name = "8139too";
        critical_roots = [ "rtl8139_interrupt"; "rtl8139_start_xmit"; "rtl8139_poll" ];
        interface_functions =
          [
            "rtl8139_probe";
            "rtl8139_remove";
            "rtl8139_open";
            "rtl8139_close";
            "rtl8139_start_xmit";
            "rtl8139_interrupt";
            "rtl8139_poll";
            "rtl8139_set_rx_mode";
            "rtl8139_set_mac_address";
            "rtl8139_get_stats";
            "rtl8139_timer";
            "rtl8139_tx_timeout";
            "rtl8139_suspend";
            "rtl8139_resume";
          ];
      };
    const_env = [ ("RX_BUF_LEN", 8192) ];
    (* the MII/EEPROM bit-banging helpers stayed in the C driver library
       during migration *)
    java_functions =
      Decaf_slicer.Slicer.Only
        [
          "rtl8139_chip_reset";
          "rtl8139_init_board";
          "rtl8139_read_mac";
          "rtl8139_hw_start";
          "rtl8139_init_ring";
          "rtl8139_open";
          "rtl8139_close";
          "rtl8139_set_rx_mode";
          "rtl8139_set_mac_address";
          "rtl8139_get_stats";
          "rtl8139_timer";
          "rtl8139_tx_timeout";
          "rtl8139_probe";
          "rtl8139_remove";
          "rtl8139_suspend";
          "rtl8139_resume";
        ];
  }

(* Line-anchored decaf-lint suppressions; see Lint.apply_waivers. *)
let lint_waivers : Decaf_slicer.Lint.waiver list =
  let open Decaf_slicer.Lint in
  [
    {
      w_pass = Annotation_soundness;
      w_anchor = "rtl8139_private";
      w_line = 11;
      w_reason = "pre-conversion corpus: the C bodies remain the slicer's input";
    };
    {
      w_pass = Inbound_validation;
      w_anchor = "rtl8139_private";
      w_line = 11;
      w_reason =
        "pre-conversion corpus: the decaf build validates these fields at \
         the boundary via the Guard rules in Rtl8139_objects";
    };
  ]
