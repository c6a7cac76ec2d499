let source =
  {|#include <linux/module.h>
#include <linux/pci.h>
#include <linux/netdevice.h>
#include "e1000_hw.h"

#define PCI_LEN 64
#define E1000_CTRL 0
#define E1000_STATUS 8
#define E1000_EERD 20
#define E1000_MDIC 32
#define E1000_ICR 192
#define E1000_IMS 208
#define E1000_IMC 216
#define E1000_RCTL 256
#define E1000_TCTL 1024
#define E1000_TDT  14360
#define E1000_RDT  10264

typedef unsigned int __le32;

struct e1000_tx_ring {
  int count;
  int next_to_use;
  int next_to_clean;
  long long dma;
  uint32_t * __attribute__((exp(TX_RING_LEN))) desc;
};

struct e1000_rx_ring {
  int count;
  int next_to_use;
  int next_to_clean;
  long long dma;
  uint32_t * __attribute__((exp(RX_RING_LEN))) desc;
};

struct e1000_hw {
  int mac_type;
  int phy_type;
  int media_type;
  int autoneg;
  int fc;
  int ffe_config_state;
  int wait_autoneg_complete;
  unsigned int io_base;
  char mac_addr[6];
};

struct e1000_adapter {
  struct e1000_tx_ring tx_ring;    /* first member: aliases the adapter */
  struct e1000_rx_ring rx_ring;
  struct e1000_hw hw;
  uint32_t * __attribute__((exp(PCI_LEN))) config_space;
  int msg_enable;
  int bd_number;
  int rx_buffer_len;
  int num_tx_queues;
  int link_up;
  int itr;
  int smartspeed;
  char ifname[16];
};

struct e1000_option {
  int type;
  int min;
  int max;
  int def;
};

/* ---- kernel imports ---- */
int pci_enable_device(struct e1000_adapter *adapter);
void pci_set_master(struct e1000_adapter *adapter);
int pci_set_mwi(struct e1000_adapter *adapter);
unsigned int pci_read_config_dword(struct e1000_adapter *adapter, int off);
int request_irq(int irq, int handler);
void free_irq(int irq);
int register_netdev(struct e1000_adapter *adapter);
void unregister_netdev(struct e1000_adapter *adapter);
void netif_start_queue(struct e1000_adapter *adapter);
void netif_stop_queue(struct e1000_adapter *adapter);
void netif_wake_queue(struct e1000_adapter *adapter);
void netif_carrier_on(struct e1000_adapter *adapter);
void netif_carrier_off(struct e1000_adapter *adapter);
void netif_rx(struct e1000_adapter *adapter, int len);
unsigned int ioread32(unsigned int addr);
void iowrite32(unsigned int addr, unsigned int value);
int kmalloc_ring(int size);
void kfree_ring(int ptr);
void printk_info(int code);
void udelay(int usec);
void msec_delay_irq(int msec);
void mod_timer(int expires);
void del_timer(int unused);
void schedule_work(int unused);

/* ================= e1000_hw.c: hardware layer ================= */

static int e1000_read_phy_reg(struct e1000_hw *hw, int reg_addr, int *phy_data) {
  unsigned int mdic;
  iowrite32(E1000_MDIC, (reg_addr << 16) | 0x8000000);
  udelay(50);
  mdic = ioread32(E1000_MDIC);
  if (!(mdic & 0x10000000))
    return -2;
  *phy_data = mdic & 0xffff;
  return 0;
}

static int e1000_write_phy_reg(struct e1000_hw *hw, int reg_addr, int phy_data) {
  unsigned int mdic;
  iowrite32(E1000_MDIC, (reg_addr << 16) | 0x4000000 | phy_data);
  udelay(50);
  mdic = ioread32(E1000_MDIC);
  if (!(mdic & 0x10000000))
    return -2;
  return 0;
}

static int e1000_read_eeprom(struct e1000_hw *hw, int offset, int *data) {
  unsigned int eerd;
  int i;
  iowrite32(E1000_EERD, (offset << 8) | 1);
  for (i = 0; i < 100; i++) {
    eerd = ioread32(E1000_EERD);
    if (eerd & 16) {
      *data = (eerd >> 16) & 0xffff;
      return 0;
    }
    udelay(5);
  }
  return -2;
}

static int e1000_validate_eeprom_checksum(struct e1000_hw *hw) {
  int checksum = 0;
  int data;
  int ret_val;
  int i;
  for (i = 0; i < 64; i++) {
    ret_val = e1000_read_eeprom(hw, i, &data);
    if (ret_val)
      return ret_val;
    checksum = (checksum + data) & 0xffff;
  }
  if (checksum != 0xbaba)
    return -5;
  return 0;
}

static int e1000_read_mac_addr(struct e1000_hw *hw) {
  int data;
  int ret_val;
  int i;
  for (i = 0; i < 3; i++) {
    ret_val = e1000_read_eeprom(hw, i, &data);
    if (ret_val)
      return ret_val;
    hw->mac_addr[2 * i] = data & 0xff;
    hw->mac_addr[2 * i + 1] = (data >> 8) & 0xff;
  }
  return 0;
}

static int e1000_phy_hw_reset(struct e1000_hw *hw) {
  unsigned int ctrl;
  ctrl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ctrl | 0x80000000);
  udelay(100);
  iowrite32(E1000_CTRL, ctrl);
  udelay(150);
  return 0;
}

static int e1000_phy_reset(struct e1000_hw *hw) {
  int ret_val;
  int phy_data;
  ret_val = e1000_phy_hw_reset(hw);
  if (ret_val)
    return ret_val;
  ret_val = e1000_read_phy_reg(hw, 0, &phy_data);
  if (ret_val)
    return ret_val;
  phy_data = phy_data | 0x8000;
  /* BUG: reset write result ignored */
  e1000_write_phy_reg(hw, 0, phy_data);
  udelay(1);
  return 0;
}

static int e1000_detect_gig_phy(struct e1000_hw *hw) {
  int phy_id;
  int ret_val;
  ret_val = e1000_read_phy_reg(hw, 2, &phy_id);
  if (ret_val)
    return ret_val;
  if (phy_id == 0x141) {
    hw->phy_type = 2;
    return 0;
  }
  hw->phy_type = 0;
  return -19;
}

static int e1000_phy_setup_autoneg(struct e1000_hw *hw) {
  int ret_val;
  int autoneg_adv;
  ret_val = e1000_read_phy_reg(hw, 4, &autoneg_adv);
  if (ret_val)
    return ret_val;
  autoneg_adv = autoneg_adv | 0x1e1;
  ret_val = e1000_write_phy_reg(hw, 4, autoneg_adv);
  if (ret_val)
    return ret_val;
  /* BUG: gigabit control write unchecked */
  e1000_write_phy_reg(hw, 9, 0x300);
  return 0;
}

static int e1000_wait_autoneg(struct e1000_hw *hw) {
  int i;
  int phy_data;
  int ret_val;
  for (i = 0; i < 45; i++) {
    ret_val = e1000_read_phy_reg(hw, 1, &phy_data);
    if (ret_val)
      return ret_val;
    if (phy_data & 0x20)
      return 0;
    msec_delay_irq(100);
  }
  return -110;
}

static int e1000_config_dsp_after_link_change(struct e1000_hw *hw, int link_up) {
  int ret_val;
  int phy_saved_data;
  int phy_data;
  int speed;
  if (hw->phy_type != 2)
    return 0;
  if (link_up) {
    ret_val = e1000_read_phy_reg(hw, 17, &phy_data);
    if (ret_val)
      return ret_val;
    speed = phy_data & 0xc000;
    if (speed != 0x8000 && hw->ffe_config_state == 1) {
      ret_val = e1000_read_phy_reg(hw, 0x2f5b, &phy_saved_data);
      if (ret_val)
        return ret_val;
      ret_val = e1000_write_phy_reg(hw, 0x2f5b, 0x3);
      if (ret_val)
        return ret_val;
      msec_delay_irq(20);
      ret_val = e1000_write_phy_reg(hw, 0x0, 0x140);
      if (ret_val)
        return ret_val;
      /* BUG: restoring saved DSP state is not checked */
      e1000_write_phy_reg(hw, 0x2f5b, phy_saved_data);
      hw->ffe_config_state = 0;
    }
  } else {
    if (hw->ffe_config_state == 0) {
      /* BUG: forcing FFE configuration unchecked */
      e1000_write_phy_reg(hw, 0x2f5b, 0x8);
      hw->ffe_config_state = 1;
    }
  }
  return 0;
}

static int e1000_config_mac_to_phy(struct e1000_hw *hw) {
  unsigned int ctrl;
  int phy_data;
  int ret_val;
  ctrl = ioread32(E1000_CTRL);
  ctrl = ctrl | 0x1;
  ret_val = e1000_read_phy_reg(hw, 17, &phy_data);
  if (ret_val)
    return ret_val;
  if (phy_data & 0x2000)
    ctrl = ctrl | 0x1000;
  iowrite32(E1000_CTRL, ctrl);
  return 0;
}

static int e1000_force_mac_fc(struct e1000_hw *hw) {
  unsigned int ctrl;
  ctrl = ioread32(E1000_CTRL);
  if (hw->fc == 1)
    ctrl = ctrl | 0x8000000;
  if (hw->fc == 2)
    ctrl = ctrl | 0x10000000;
  if (hw->fc > 3)
    return -22;
  iowrite32(E1000_CTRL, ctrl);
  return 0;
}

static int e1000_config_fc_after_link_up(struct e1000_hw *hw) {
  int ret_val;
  int mii_status;
  int mii_nway_adv;
  if (hw->fc == 0) {
    ret_val = e1000_force_mac_fc(hw);
    if (ret_val)
      return ret_val;
    return 0;
  }
  ret_val = e1000_read_phy_reg(hw, 1, &mii_status);
  if (ret_val)
    return ret_val;
  if (!(mii_status & 0x20))
    return 0;
  ret_val = e1000_read_phy_reg(hw, 4, &mii_nway_adv);
  if (ret_val)
    return ret_val;
  if (mii_nway_adv & 0x400)
    hw->fc = 3;
  /* BUG: the final flow-control force is unchecked */
  e1000_force_mac_fc(hw);
  return 0;
}

static int e1000_setup_copper_link(struct e1000_hw *hw) {
  int ret_val;
  ret_val = e1000_detect_gig_phy(hw);
  if (ret_val)
    return ret_val;
  ret_val = e1000_phy_reset(hw);
  if (ret_val)
    return ret_val;
  if (hw->autoneg) {
    ret_val = e1000_phy_setup_autoneg(hw);
    if (ret_val)
      return ret_val;
    if (hw->wait_autoneg_complete) {
      ret_val = e1000_wait_autoneg(hw);
      if (ret_val)
        return ret_val;
    }
  }
  ret_val = e1000_config_mac_to_phy(hw);
  if (ret_val)
    return ret_val;
  /* BUG: flow-control configuration failure is dropped */
  e1000_config_fc_after_link_up(hw);
  return 0;
}

static int e1000_setup_link(struct e1000_hw *hw) {
  int ret_val;
  if (hw->media_type == 0) {
    ret_val = e1000_setup_copper_link(hw);
    if (ret_val)
      return ret_val;
  }
  iowrite32(E1000_IMS, 0);
  return 0;
}

static int e1000_id_led_init(struct e1000_hw *hw) {
  int eeprom_data;
  int ret_val;
  ret_val = e1000_read_eeprom(hw, 4, &eeprom_data);
  if (ret_val)
    return ret_val;
  if (eeprom_data == 0)
    return -22;
  return 0;
}

static int e1000_setup_led(struct e1000_hw *hw) {
  int ledctl;
  /* BUG: LED PHY write result dropped */
  e1000_write_phy_reg(hw, 24, 0x1);
  ledctl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ledctl | 0x40);
  return 0;
}

static int e1000_cleanup_led(struct e1000_hw *hw) {
  /* BUG: LED restore write unchecked */
  e1000_write_phy_reg(hw, 24, 0x0);
  return 0;
}

static int e1000_reset_hw(struct e1000_hw *hw) {
  unsigned int ctrl;
  iowrite32(E1000_IMC, 0xffffffff);
  iowrite32(E1000_RCTL, 0);
  iowrite32(E1000_TCTL, 0x8);
  ctrl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ctrl | 0x4000000);
  msec_delay_irq(10);
  iowrite32(E1000_IMC, 0xffffffff);
  return 0;
}

static int e1000_init_hw(struct e1000_hw *hw) {
  int ret_val;
  int i;
  ret_val = e1000_id_led_init(hw);
  if (ret_val)
    return ret_val;
  for (i = 0; i < 16; i++)
    iowrite32(E1000_CTRL + 4 * i, 0);
  ret_val = e1000_setup_link(hw);
  if (ret_val)
    return ret_val;
  /* BUG: LED setup failure ignored during init */
  e1000_setup_led(hw);
  return 0;
}

static int e1000_get_speed_and_duplex(struct e1000_hw *hw, int *speed, int *duplex) {
  unsigned int status;
  status = ioread32(E1000_STATUS);
  if (status & 0x40)
    *speed = 100;
  else
    *speed = 1000;
  if (status & 0x1)
    *duplex = 1;
  else
    *duplex = 0;
  return 0;
}


static int e1000_check_polarity(struct e1000_hw *hw, int *polarity) {
  int ret_val;
  int phy_data;
  ret_val = e1000_read_phy_reg(hw, 17, &phy_data);
  if (ret_val)
    return ret_val;
  *polarity = (phy_data >> 1) & 1;
  return 0;
}

static int e1000_check_downshift(struct e1000_hw *hw) {
  int ret_val;
  int phy_data;
  ret_val = e1000_read_phy_reg(hw, 19, &phy_data);
  if (ret_val)
    return ret_val;
  if (phy_data & 0x20)
    return 1;
  return 0;
}

static int e1000_get_cable_length(struct e1000_hw *hw, int *min_length) {
  int ret_val;
  int cable_length;
  ret_val = e1000_read_phy_reg(hw, 26, &cable_length);
  if (ret_val)
    return ret_val;
  *min_length = (cable_length >> 7) & 7;
  /* BUG: polarity probe result dropped */
  e1000_check_polarity(hw, &cable_length);
  return 0;
}

static int e1000_phy_igp_get_info(struct e1000_hw *hw) {
  int ret_val;
  int min_length;
  ret_val = e1000_get_cable_length(hw, &min_length);
  if (ret_val)
    return ret_val;
  /* BUG: downshift probe unchecked */
  e1000_check_downshift(hw);
  return 0;
}

static int e1000_phy_m88_get_info(struct e1000_hw *hw) {
  int phy_data;
  /* BUG: extended status read unchecked */
  e1000_read_phy_reg(hw, 27, &phy_data);
  /* BUG: specific status read unchecked */
  e1000_read_phy_reg(hw, 17, &phy_data);
  return 0;
}

static int e1000_phy_get_info(struct e1000_hw *hw) {
  if (hw->phy_type == 2)
    return e1000_phy_m88_get_info(hw);
  return e1000_phy_igp_get_info(hw);
}

static int e1000_smartspeed_probe(struct e1000_hw *hw) {
  int ret_val;
  int phy_status;
  ret_val = e1000_read_phy_reg(hw, 1, &phy_status);
  if (ret_val)
    return ret_val;
  if (!(phy_status & 0x20)) {
    /* BUG: autoneg restart unchecked */
    e1000_write_phy_reg(hw, 0, 0x1200);
  }
  return 0;
}

static int e1000_led_on(struct e1000_hw *hw) {
  unsigned int ledctl;
  ledctl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ledctl | 0x40);
  /* BUG: LED mode PHY write unchecked */
  e1000_write_phy_reg(hw, 24, 0x11);
  return 0;
}

static int e1000_led_off(struct e1000_hw *hw) {
  unsigned int ledctl;
  ledctl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ledctl & ~0x40);
  /* BUG: LED mode PHY write unchecked */
  e1000_write_phy_reg(hw, 24, 0x10);
  return 0;
}

static int e1000_write_vfta(struct e1000_hw *hw, int offset, int value) {
  iowrite32(E1000_RCTL + 0x600 + 4 * offset, value);
  return 0;
}

static int e1000_clear_vfta(struct e1000_hw *hw) {
  int offset;
  for (offset = 0; offset < 128; offset++)
    e1000_write_vfta(hw, offset, 0);
  return 0;
}

static int e1000_get_bus_info(struct e1000_hw *hw) {
  unsigned int status;
  status = ioread32(E1000_STATUS);
  hw->mac_type = (status >> 8) & 3;
  return 0;
}

static int e1000_disable_pciex_master(struct e1000_hw *hw) {
  unsigned int ctrl;
  int i;
  ctrl = ioread32(E1000_CTRL);
  iowrite32(E1000_CTRL, ctrl | 0x4);
  for (i = 0; i < 100; i++) {
    if (!(ioread32(E1000_STATUS) & 0x80000))
      return 0;
    udelay(100);
  }
  return -110;
}

static int e1000_set_d0_lplu_state(struct e1000_hw *hw, int active) {
  int ret_val;
  int phy_data;
  ret_val = e1000_read_phy_reg(hw, 25, &phy_data);
  if (ret_val)
    return ret_val;
  if (active)
    phy_data = phy_data | 0x2;
  else
    phy_data = phy_data & ~0x2;
  /* BUG: LPLU state write unchecked */
  e1000_write_phy_reg(hw, 25, phy_data);
  return 0;
}

static int e1000_set_vco_speed(struct e1000_hw *hw) {
  int default_page;
  int ret_val;
  ret_val = e1000_read_phy_reg(hw, 31, &default_page);
  if (ret_val)
    return ret_val;
  ret_val = e1000_write_phy_reg(hw, 31, 0x5);
  if (ret_val)
    return ret_val;
  /* BUG: restoring the default page is unchecked */
  e1000_write_phy_reg(hw, 31, default_page);
  return 0;
}

static int e1000_config_collision_dist(struct e1000_hw *hw) {
  unsigned int tctl;
  tctl = ioread32(E1000_TCTL);
  tctl = tctl | 0x200000;
  iowrite32(E1000_TCTL, tctl);
  return 0;
}

/* ================= module parameters ================= */

static int e1000_validate_option(int value, struct e1000_option *opt) {
  if (opt->type == 0) {
    if (value == 0 || value == 1)
      return value;
    return opt->def;
  }
  if (opt->type == 1) {
    if (value >= opt->min && value <= opt->max)
      return value;
    printk_info(22);
    return opt->def;
  }
  return opt->def;
}

static void e1000_check_options(struct e1000_adapter *adapter) {
  struct e1000_option opt;
  opt.type = 1;
  opt.min = 80;
  opt.max = 256;
  opt.def = 256;
  adapter->tx_ring.count = e1000_validate_option(adapter->tx_ring.count, &opt);
  adapter->rx_ring.count = e1000_validate_option(adapter->rx_ring.count, &opt);
  opt.type = 1;
  opt.min = 0;
  opt.max = 100000;
  opt.def = 3;
  adapter->itr = e1000_validate_option(adapter->itr, &opt);
  opt.type = 0;
  opt.def = 1;
  adapter->smartspeed = e1000_validate_option(adapter->smartspeed, &opt);
}

/* ================= resource management ================= */

static int e1000_setup_tx_resources(struct e1000_adapter *adapter,
                                    struct e1000_tx_ring *tx_ring) {
  int size = tx_ring->count * 16;
  int mem = kmalloc_ring(size);
  if (!mem)
    return -12;
  tx_ring->next_to_use = 0;
  tx_ring->next_to_clean = 0;
  tx_ring->dma = mem;
  return 0;
}

static int e1000_setup_all_tx_resources(struct e1000_adapter *adapter) {
  int err = e1000_setup_tx_resources(adapter, &adapter->tx_ring);
  if (err)
    return err;
  return 0;
}

static int e1000_setup_rx_resources(struct e1000_adapter *adapter,
                                    struct e1000_rx_ring *rx_ring) {
  int size = rx_ring->count * 16;
  int mem = kmalloc_ring(size);
  if (!mem)
    return -12;
  rx_ring->next_to_use = 0;
  rx_ring->next_to_clean = 0;
  rx_ring->dma = mem;
  return 0;
}

static int e1000_setup_all_rx_resources(struct e1000_adapter *adapter) {
  int err = e1000_setup_rx_resources(adapter, &adapter->rx_ring);
  if (err)
    return err;
  return 0;
}

static void e1000_free_all_tx_resources(struct e1000_adapter *adapter) {
  kfree_ring(adapter->tx_ring.dma);
  adapter->tx_ring.dma = 0;
}

static void e1000_free_all_rx_resources(struct e1000_adapter *adapter) {
  kfree_ring(adapter->rx_ring.dma);
  adapter->rx_ring.dma = 0;
}

/* ================= configuration ================= */

static void e1000_configure_tx(struct e1000_adapter *adapter) {
  iowrite32(E1000_TCTL, 0x3103f0fa);
  iowrite32(E1000_TDT, 0);
}

static void e1000_configure_rx(struct e1000_adapter *adapter) {
  iowrite32(E1000_RCTL, 0x8002);
  iowrite32(E1000_RDT, adapter->rx_ring.count - 1);
}

static void e1000_save_config_space(struct e1000_adapter *adapter) {
  int i;
  DECAF_RWVAR(adapter->config_space);
  for (i = 0; i < 16; i++)
    adapter->config_space[i] = pci_read_config_dword(adapter, 4 * i);
}

static int e1000_sw_init(struct e1000_adapter *adapter) {
  adapter->rx_buffer_len = 2048;
  adapter->num_tx_queues = 1;
  adapter->hw.media_type = 0;
  adapter->hw.autoneg = 1;
  adapter->hw.wait_autoneg_complete = 1;
  adapter->hw.fc = 3;
  e1000_check_options(adapter);
  return 0;
}

static int e1000_reset(struct e1000_adapter *adapter) {
  int ret_val;
  ret_val = e1000_reset_hw(&adapter->hw);
  if (ret_val)
    return ret_val;
  ret_val = e1000_init_hw(&adapter->hw);
  if (ret_val)
    return ret_val;
  return 0;
}

/* ================= data path: driver nucleus ================= */

static void e1000_unmap_and_free_tx_resource(struct e1000_adapter *adapter, int i) {
  adapter->tx_ring.desc[i] = 0;
}

static int e1000_clean_tx_irq(struct e1000_adapter *adapter) {
  struct e1000_tx_ring *tx_ring = &adapter->tx_ring;
  int cleaned = 0;
  while (tx_ring->next_to_clean != tx_ring->next_to_use) {
    e1000_unmap_and_free_tx_resource(adapter, tx_ring->next_to_clean);
    tx_ring->next_to_clean = (tx_ring->next_to_clean + 1) % tx_ring->count;
    cleaned = cleaned + 1;
  }
  if (cleaned)
    netif_wake_queue(adapter);
  return cleaned;
}

static int e1000_clean_rx_irq(struct e1000_adapter *adapter) {
  struct e1000_rx_ring *rx_ring = &adapter->rx_ring;
  int cleaned = 0;
  while (rx_ring->next_to_clean != rx_ring->next_to_use) {
    netif_rx(adapter, adapter->rx_buffer_len);
    rx_ring->next_to_clean = (rx_ring->next_to_clean + 1) % rx_ring->count;
    cleaned = cleaned + 1;
  }
  return cleaned;
}

static void e1000_alloc_rx_buffers(struct e1000_adapter *adapter) {
  struct e1000_rx_ring *rx_ring = &adapter->rx_ring;
  rx_ring->next_to_use = (rx_ring->next_to_use + 1) % rx_ring->count;
  iowrite32(E1000_RDT, rx_ring->next_to_use);
}

static int e1000_xmit_frame(struct e1000_adapter *adapter, int len) {
  struct e1000_tx_ring *tx_ring = &adapter->tx_ring;
  int next = (tx_ring->next_to_use + 1) % tx_ring->count;
  if (next == tx_ring->next_to_clean) {
    netif_stop_queue(adapter);
    return -16;
  }
  tx_ring->desc[tx_ring->next_to_use] = len;
  tx_ring->next_to_use = next;
  iowrite32(E1000_TDT, next);
  return 0;
}

static void e1000_intr(struct e1000_adapter *adapter) {
  unsigned int icr = ioread32(E1000_ICR);
  if (!icr)
    return;
  if (icr & 0x1)
    e1000_clean_tx_irq(adapter);
  if (icr & 0x80) {
    e1000_clean_rx_irq(adapter);
    e1000_alloc_rx_buffers(adapter);
  }
  if (icr & 0x4)
    adapter->link_up = 0;
}

/* ================= up/down, open/close ================= */

static int e1000_up(struct e1000_adapter *adapter) {
  e1000_configure_tx(adapter);
  e1000_configure_rx(adapter);
  iowrite32(E1000_IMS, 0x85);
  netif_start_queue(adapter);
  return 0;
}

static void e1000_down(struct e1000_adapter *adapter) {
  iowrite32(E1000_IMC, 0xffffffff);
  /* BUG: master-disable handshake timeout ignored */
  e1000_disable_pciex_master(&adapter->hw);
  netif_stop_queue(adapter);
  netif_carrier_off(adapter);
}

static int e1000_power_up_phy(struct e1000_adapter *adapter) {
  int phy_data;
  int ret_val;
  ret_val = e1000_read_phy_reg(&adapter->hw, 0, &phy_data);
  if (ret_val)
    return ret_val;
  phy_data = phy_data & ~0x800;
  ret_val = e1000_write_phy_reg(&adapter->hw, 0, phy_data);
  if (ret_val)
    return ret_val;
  return 0;
}

static void e1000_power_down_phy(struct e1000_adapter *adapter) {
  int phy_data;
  /* BUG: read before powering down unchecked */
  e1000_read_phy_reg(&adapter->hw, 0, &phy_data);
  phy_data = phy_data | 0x800;
  /* BUG: power-down write unchecked */
  e1000_write_phy_reg(&adapter->hw, 0, phy_data);
}

static int e1000_request_irq(struct e1000_adapter *adapter) {
  int err = request_irq(11, 1);
  if (err)
    return err;
  return 0;
}

static int e1000_open(struct e1000_adapter *adapter) {
  int err;
  err = e1000_setup_all_tx_resources(adapter);
  if (err)
    goto err_setup_tx;
  err = e1000_setup_all_rx_resources(adapter);
  if (err)
    goto err_setup_rx;
  err = e1000_request_irq(adapter);
  if (err)
    goto err_req_irq;
  err = e1000_power_up_phy(adapter);
  if (err)
    goto err_up;
  err = e1000_up(adapter);
  if (err)
    goto err_up;
  return 0;
err_up:
  free_irq(11);
err_req_irq:
  e1000_free_all_rx_resources(adapter);
err_setup_rx:
  e1000_free_all_tx_resources(adapter);
err_setup_tx:
  e1000_reset(adapter);
  return err;
}

static int e1000_close(struct e1000_adapter *adapter) {
  e1000_down(adapter);
  e1000_power_down_phy(adapter);
  free_irq(11);
  e1000_free_all_tx_resources(adapter);
  e1000_free_all_rx_resources(adapter);
  return 0;
}

/* ================= housekeeping ================= */

static void e1000_update_stats(struct e1000_adapter *adapter) {
  adapter->msg_enable = adapter->msg_enable;
  ioread32(E1000_STATUS);
}

static int e1000_get_stats(struct e1000_adapter *adapter) {
  e1000_update_stats(adapter);
  return adapter->msg_enable;
}

static void e1000_set_multi(struct e1000_adapter *adapter) {
  unsigned int rctl = ioread32(E1000_RCTL);
  rctl = rctl | 0x100;
  iowrite32(E1000_RCTL, rctl);
}

static int e1000_change_mtu(struct e1000_adapter *adapter, int new_mtu) {
  if (new_mtu < 68 || new_mtu > 16110)
    return -22;
  adapter->rx_buffer_len = new_mtu + 24;
  return 0;
}

static int e1000_set_mac(struct e1000_adapter *adapter, char *addr) {
  int i;
  for (i = 0; i < 6; i++)
    adapter->hw.mac_addr[i] = addr[i];
  return 0;
}

static void e1000_watchdog(struct e1000_adapter *adapter) {
  int speed;
  int duplex;
  unsigned int status;
  DECAF_RWVAR(adapter->link_up);
  status = ioread32(E1000_STATUS);
  if (status & 0x2) {
    if (!adapter->link_up) {
      /* BUG: speed/duplex probe failure ignored */
      e1000_get_speed_and_duplex(&adapter->hw, &speed, &duplex);
      netif_carrier_on(adapter);
      adapter->link_up = 1;
    }
  } else {
    if (adapter->link_up) {
      netif_carrier_off(adapter);
      adapter->link_up = 0;
    }
  }
  /* BUG: smartspeed probe failure ignored */
  e1000_smartspeed_probe(&adapter->hw);
  e1000_update_stats(adapter);
  mod_timer(2000);
}

static void e1000_smartspeed_work(struct e1000_adapter *adapter) {
  int phy_status;
  if (!adapter->smartspeed)
    return;
  /* BUG: smartspeed PHY probe unchecked */
  e1000_read_phy_reg(&adapter->hw, 1, &phy_status);
  if (phy_status & 0x20)
    adapter->smartspeed = 0;
}

/* ================= probe / remove ================= */

static int e1000_probe(struct e1000_adapter *adapter) {
  int err;
  int need_ioport = 0;
  err = pci_enable_device(adapter);
  if (err)
    return err;
  pci_set_master(adapter);
  /* BUG: memory-write-invalidate enable result dropped */
  pci_set_mwi(adapter);
  err = e1000_sw_init(adapter);
  if (err)
    goto err_sw_init;
  err = e1000_reset_hw(&adapter->hw);
  if (err)
    goto err_sw_init;
  err = e1000_validate_eeprom_checksum(&adapter->hw);
  if (err)
    goto err_eeprom;
  err = e1000_read_mac_addr(&adapter->hw);
  if (err)
    goto err_eeprom;
  e1000_save_config_space(adapter);
  err = e1000_init_hw(&adapter->hw);
  if (err)
    goto err_eeprom;
  err = register_netdev(adapter);
  if (err)
    goto err_register;
  netif_carrier_off(adapter);
  printk_info(need_ioport);
  return 0;
err_register:
err_eeprom:
  e1000_reset_hw(&adapter->hw);
err_sw_init:
  return err;
}

static void e1000_remove(struct e1000_adapter *adapter) {
  del_timer(0);
  unregister_netdev(adapter);
  /* BUG: final PHY cleanup path unchecked */
  e1000_cleanup_led(&adapter->hw);
  e1000_reset_hw(&adapter->hw);
}

/* ================= suspend / resume ================= */

static int e1000_suspend(struct e1000_adapter *adapter) {
  e1000_down(adapter);
  e1000_save_config_space(adapter);
  /* BUG: low-power link-up state change unchecked */
  e1000_set_d0_lplu_state(&adapter->hw, 1);
  e1000_power_down_phy(adapter);
  return 0;
}

static int e1000_resume(struct e1000_adapter *adapter) {
  int err;
  /* BUG: VCO speed restore unchecked */
  e1000_set_vco_speed(&adapter->hw);
  err = e1000_power_up_phy(adapter);
  if (err)
    return err;
  err = e1000_reset(adapter);
  if (err)
    return err;
  err = e1000_up(adapter);
  if (err)
    return err;
  netif_carrier_on(adapter);
  return 0;
}

/* ================= ethtool ================= */

static int e1000_get_settings(struct e1000_adapter *adapter) {
  int speed;
  int duplex;
  int ret_val;
  /* BUG: PHY info refresh unchecked */
  e1000_phy_get_info(&adapter->hw);
  ret_val = e1000_get_speed_and_duplex(&adapter->hw, &speed, &duplex);
  if (ret_val)
    return ret_val;
  return speed;
}

static int e1000_set_settings(struct e1000_adapter *adapter, int autoneg) {
  int ret_val;
  adapter->hw.autoneg = autoneg;
  ret_val = e1000_phy_setup_autoneg(&adapter->hw);
  if (ret_val)
    return ret_val;
  /* BUG: link reconfiguration result dropped */
  e1000_setup_link(&adapter->hw);
  return 0;
}

/* waits for the interrupt handler to flip a flag: must stay in the
   kernel (explicit data race with e1000_intr, section 5 of the paper) */
static int e1000_diag_test(struct e1000_adapter *adapter) {
  int i;
  adapter->link_up = 1;
  iowrite32(E1000_ICR + 8, 0x4);
  for (i = 0; i < 1000; i++) {
    if (!adapter->link_up)
      return 0;
    udelay(10);
  }
  return -110;
}

static int e1000_loopback_test(struct e1000_adapter *adapter) {
  int err;
  err = e1000_diag_test(adapter);
  if (err)
    return err;
  return 0;
}

static int e1000_intr_test(struct e1000_adapter *adapter) {
  int i;
  adapter->link_up = 1;
  iowrite32(E1000_ICR + 8, 0x4);
  for (i = 0; i < 100; i++) {
    if (!adapter->link_up)
      return 0;
    udelay(10);
  }
  return -110;
}

static int e1000_link_test(struct e1000_adapter *adapter) {
  int i;
  adapter->link_up = 0;
  for (i = 0; i < 100; i++) {
    if (adapter->link_up)
      return 0;
    udelay(10);
  }
  return -110;
}

static int e1000_reg_test(struct e1000_adapter *adapter) {
  unsigned int before;
  before = ioread32(E1000_STATUS);
  iowrite32(E1000_RCTL, 0xffffffff);
  if (ioread32(E1000_RCTL) == before)
    return -5;
  iowrite32(E1000_RCTL, 0);
  return 0;
}

static int e1000_eeprom_test(struct e1000_adapter *adapter) {
  int ret_val;
  ret_val = e1000_validate_eeprom_checksum(&adapter->hw);
  if (ret_val)
    return ret_val;
  return 0;
}
|}

let config =
  {
    Decaf_slicer.Slicer.partition =
      {
        Decaf_slicer.Partition.driver_name = "e1000";
        critical_roots =
          [
            "e1000_intr";
            "e1000_xmit_frame";
            (* the four ethtool functions with the explicit data race on
               link_up stay in the kernel (§5) *)
            "e1000_diag_test";
            "e1000_loopback_test";
            "e1000_intr_test";
            "e1000_link_test";
          ];
        interface_functions =
          [
            "e1000_probe";
            "e1000_remove";
            "e1000_open";
            "e1000_close";
            "e1000_xmit_frame";
            "e1000_intr";
            "e1000_watchdog";
            "e1000_get_stats";
            "e1000_set_multi";
            "e1000_change_mtu";
            "e1000_set_mac";
            "e1000_suspend";
            "e1000_resume";
            "e1000_get_settings";
            "e1000_set_settings";
            "e1000_diag_test";
          ];
      };
    const_env = [ ("PCI_LEN", 64); ("TX_RING_LEN", 256); ("RX_RING_LEN", 256) ];
    java_functions = Decaf_slicer.Slicer.All_user;
  }

let hw_layer_functions =
  [
    "e1000_read_phy_reg";
    "e1000_write_phy_reg";
    "e1000_read_eeprom";
    "e1000_validate_eeprom_checksum";
    "e1000_read_mac_addr";
    "e1000_phy_hw_reset";
    "e1000_phy_reset";
    "e1000_detect_gig_phy";
    "e1000_setup_link";
    "e1000_setup_copper_link";
    "e1000_phy_setup_autoneg";
    "e1000_wait_autoneg";
    "e1000_config_dsp_after_link_change";
    "e1000_config_mac_to_phy";
    "e1000_config_fc_after_link_up";
    "e1000_force_mac_fc";
    "e1000_init_hw";
    "e1000_reset_hw";
    "e1000_get_speed_and_duplex";
    "e1000_id_led_init";
    "e1000_setup_led";
    "e1000_cleanup_led";
    "e1000_check_polarity";
    "e1000_check_downshift";
    "e1000_get_cable_length";
    "e1000_phy_igp_get_info";
    "e1000_phy_m88_get_info";
    "e1000_phy_get_info";
    "e1000_smartspeed_probe";
    "e1000_led_on";
    "e1000_led_off";
    "e1000_write_vfta";
    "e1000_clear_vfta";
    "e1000_get_bus_info";
    "e1000_disable_pciex_master";
    "e1000_set_d0_lplu_state";
    "e1000_set_vco_speed";
    "e1000_config_collision_dist";
  ]

let error_extra =
  [ "pci_enable_device"; "request_irq"; "register_netdev"; "pci_set_mwi" ]

(* Line-anchored decaf-lint suppressions; see Lint.apply_waivers. *)
let lint_waivers : Decaf_slicer.Lint.waiver list =
  let open Decaf_slicer.Lint in
  let seeded =
    (* the 28 broken error-handling sites are the 5.1 measurement *)
    List.map
      (fun (w_anchor, w_line) ->
        {
          w_pass = Error_flow;
          w_anchor;
          w_line;
          w_reason = "seeded error-handling bug kept for the Errcheck count";
        })
      [
        ("e1000_phy_reset", 186);
      ("e1000_phy_setup_autoneg", 216);
      ("e1000_config_dsp_after_link_change", 259);
      ("e1000_config_dsp_after_link_change", 265);
      ("e1000_config_fc_after_link_up", 321);
      ("e1000_setup_copper_link", 347);
      ("e1000_setup_led", 376);
      ("e1000_cleanup_led", 384);
      ("e1000_get_cable_length", 460);
      ("e1000_phy_igp_get_info", 471);
      ("e1000_phy_m88_get_info", 478);
      ("e1000_phy_m88_get_info", 480);
      ("e1000_smartspeed_probe", 498);
      ("e1000_led_on", 508);
      ("e1000_led_off", 517);
      ("e1000_set_d0_lplu_state", 564);
      ("e1000_set_vco_speed", 578);
      ("e1000_down", 792);
      ("e1000_power_down_phy", 813);
      ("e1000_power_down_phy", 816);
      ("e1000_open", 851);
      ("e1000_watchdog", 916);
      ("e1000_smartspeed_work", 926);
      ("e1000_probe", 941);
      ("e1000_suspend", 985);
      ("e1000_resume", 993);
      ("e1000_get_settings", 1014);
      ("e1000_set_settings", 1028);
      ]
  in
  let missing =
    List.map
      (fun (w_anchor, w_line) ->
        {
          w_pass = Annotation_soundness;
          w_anchor;
          w_line;
          w_reason =
            "pre-conversion corpus: the C bodies remain the slicer's input";
        })
      [
        ("e1000_tx_ring", 21);
        ("e1000_rx_ring", 29);
        ("e1000_hw", 37);
        ("e1000_adapter", 49);
        ("e1000_option", 64);
      ]
  in
  let inbound =
    List.map
      (fun (w_anchor, w_line) ->
        {
          w_pass = Inbound_validation;
          w_anchor;
          w_line;
          w_reason =
            "pre-conversion corpus: the decaf build validates these fields \
             at the boundary via the Guard rules in E1000_objects";
        })
      [
        ("e1000_tx_ring", 21);
        ("e1000_rx_ring", 29);
        ("e1000_adapter", 49);
      ]
  in
  {
    w_pass = Annotation_soundness;
    w_anchor = "e1000_save_config_space";
    w_line = 689;
    w_reason =
      "config_space is write-only today; RWVAR is kept as the documented \
       suspend/resume interface the 3.2.4 evolution scenario extends";
  }
  :: seeded
  @ missing
  @ inbound
